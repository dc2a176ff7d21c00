package fpras

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/oracle"
	"repro/internal/stats"
)

func bigFloatVal(x *big.Float) float64 {
	f, _ := x.Float64()
	return f
}

func TestExactlyHandledSmallInstances(t *testing.T) {
	// With K larger than every witness set, the estimator must take the
	// exactly-handled path everywhere and return exact counts.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4)
		length := rng.Intn(7)
		est, err := New(n, length, Params{K: 1 << 12, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.Count(n, length)
		if !est.Exact() {
			t.Fatalf("trial %d: expected exactly-handled estimator", trial)
		}
		if est.CountInt().Cmp(want) != 0 {
			t.Fatalf("trial %d: count %v, want %v", trial, est.CountInt(), want)
		}
	}
}

func TestEmptyLanguage(t *testing.T) {
	n := automata.Chain(automata.Binary(), automata.Word{0, 1})
	est, err := New(n, 6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if est.Count().Sign() != 0 || !est.Exact() {
		t.Fatalf("empty language: count = %v", est.Count())
	}
	if _, err := est.Sample(); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestRejectsBadInput(t *testing.T) {
	tern := automata.NewAlphabet("a", "b", "c")
	if _, err := New(automata.New(tern, 1), 3, Params{}); err == nil {
		t.Error("ternary alphabet must be rejected")
	}
	eps := automata.New(automata.Binary(), 2)
	eps.AddEpsilon(0, 1)
	if _, err := New(eps, 3, Params{}); err == nil {
		t.Error("ε-automaton must be rejected")
	}
	ok := automata.Chain(automata.Binary(), automata.Word{0})
	if _, err := New(ok, -1, Params{}); err == nil {
		t.Error("negative length must be rejected")
	}
}

func TestAccuracyOnRandomNFAs(t *testing.T) {
	// Small K forces the estimation path; errors must stay modest and the
	// average error small. This is the in-tree version of experiment E4.
	rng := rand.New(rand.NewSource(43))
	trials, sumErr, maxErr := 0, 0.0, 0.0
	for trial := 0; trial < 12; trial++ {
		n := automata.RandomLayered(rng, automata.Binary(), 10, 4, 2)
		want, err := exact.CountNFA(n, 10, 0)
		if err != nil || want.Sign() == 0 {
			continue
		}
		est, err := New(n, 10, Params{K: 48, Seed: int64(trial + 7)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := bigFloatVal(est.Count())
		wantF, _ := new(big.Float).SetInt(want).Float64()
		re := stats.RelErr(got, wantF)
		sumErr += re
		if re > maxErr {
			maxErr = re
		}
		trials++
	}
	if trials < 6 {
		t.Fatalf("too few usable trials: %d", trials)
	}
	if avg := sumErr / float64(trials); avg > 0.15 {
		t.Fatalf("average relative error %f too large (max %f)", avg, maxErr)
	}
	if maxErr > 0.5 {
		t.Fatalf("max relative error %f too large", maxErr)
	}
}

func TestAccuracyAmbiguityGap(t *testing.T) {
	// The family that defeats path-counting estimators: |L_n| = 2^n, exact.
	for _, depth := range []int{8, 10, 12} {
		n := automata.AmbiguityGap(depth)
		est, err := New(n, depth, Params{K: 64, Seed: int64(depth)})
		if err != nil {
			t.Fatal(err)
		}
		got := bigFloatVal(est.Count())
		want := math.Pow(2, float64(depth))
		if re := stats.RelErr(got, want); re > 0.25 {
			t.Fatalf("depth %d: estimate %f vs %f (rel err %f)", depth, got, want, re)
		}
	}
}

func TestAccuracyWideGapWhereMonteCarloFails(t *testing.T) {
	// The width-4 gap family concentrates path mass on one string; the
	// naive path estimator collapses there (see internal/baseline tests)
	// but the FPRAS tracks |L_n| = 2^n because it counts distinct strings.
	depth := 12
	n := automata.AmbiguityGapWide(depth, 4)
	est, err := New(n, depth, Params{K: 64, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	got := bigFloatVal(est.Count())
	want := math.Pow(2, float64(depth))
	if re := stats.RelErr(got, want); re > 0.25 {
		t.Fatalf("estimate %f vs %f (rel err %f)", got, want, re)
	}
}

func TestCountDeterministicPerSeed(t *testing.T) {
	n := automata.AmbiguityGap(8)
	a, err := New(n, 8, Params{K: 32, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(n, 8, Params{K: 32, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count().Cmp(b.Count()) != 0 {
		t.Fatal("same seed must give same estimate")
	}
	c, err := New(n, 8, Params{K: 32, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seeds may legitimately agree; just ensure no panic
}

func TestSampleUniformExactPath(t *testing.T) {
	// Paper example (binary-encoded): s_final exactly handled, perfect
	// uniformity over 4 witnesses.
	paper, length := automata.PaperExample()
	enc := automata.BinaryEncode(paper)
	est, err := New(enc.Encoded, enc.EncodedLength(length), Params{K: 512, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Exact() {
		t.Fatal("paper example should be exactly handled at K=512")
	}
	counts := map[string]int{}
	for i := 0; i < 6000; i++ {
		w, err := est.Sample()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := enc.DecodeWord(w)
		if err != nil {
			t.Fatal(err)
		}
		counts[paper.Alphabet().FormatWord(dec)]++
	}
	if len(counts) != 4 {
		t.Fatalf("coverage: %v", counts)
	}
	vec := make([]int, 0, 4)
	for _, c := range counts {
		vec = append(vec, c)
	}
	ok, stat, err := stats.UniformityOK(vec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("not uniform: chi2=%f %v", stat, counts)
	}
}

func TestSampleUniformEstimatedPath(t *testing.T) {
	// Force the rejection-sampling path with K below |L| and verify the
	// PLVUG's conditional uniformity (Proposition 18 / Corollary 23).
	n := automata.AmbiguityGap(6) // |L_6| = 64
	est, err := New(n, 6, Params{K: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if est.Exact() {
		// |U(s_final)| = |L_6| = 64 > K = 24, so the exactly-handled path
		// cannot materialize s_final within K entries: exactness here would
		// be a correctness bug, not a parameterization accident.
		t.Fatal("estimator must take the estimated path: |L_6| = 64 exceeds K = 24")
	}
	counts := map[string]int{}
	fails := 0
	draws := 0
	for draws < 16000 {
		w, err := est.Sample()
		if err == ErrFail {
			fails++
			if fails > 2_000_000 {
				t.Fatal("failure rate absurdly high")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		draws++
		counts[automata.Binary().FormatWord(w)]++
	}
	if len(counts) != 64 {
		t.Fatalf("coverage %d of 64", len(counts))
	}
	vec := make([]int, 0, 64)
	for _, c := range counts {
		vec = append(vec, c)
	}
	ok, stat, err := stats.UniformityOK(vec)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		tv, _ := stats.TotalVariation(vec)
		t.Fatalf("not uniform: chi2=%f tv=%f", stat, tv)
	}
}

func TestSampleOnlyWitnesses(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 8; trial++ {
		n := automata.Random(rng, automata.Binary(), 3+rng.Intn(4), 0.3, 0.4)
		length := 4 + rng.Intn(4)
		est, err := New(n, length, Params{K: 16, Seed: int64(trial + 3)})
		if err != nil {
			// Estimate collapse on a pathological instance is a legitimate
			// error; skip.
			continue
		}
		for i := 0; i < 50; i++ {
			w, err := est.SampleWitness(3000)
			if err == ErrEmpty {
				break
			}
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(w) != length || !n.Accepts(w) {
				t.Fatalf("trial %d: sampled non-witness %v", trial, w)
			}
		}
	}
}

func TestSampleFailureRateBounded(t *testing.T) {
	// Corollary 23: one attempt fails with probability < 1/2 for properly
	// parameterized runs. Empirically with the e⁻⁴ scaling the acceptance
	// is ≈ e⁻⁴ per attempt, and SampleWitness's default 100-attempt budget
	// drives failure to ≈ (1−e⁻⁴)¹⁰⁰ ≈ 0.16... we check the retry wrapper
	// succeeds essentially always at 600 attempts.
	n := automata.AmbiguityGap(7)
	est, err := New(n, 7, Params{K: 24, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for i := 0; i < 50; i++ {
		if _, err := est.SampleWitness(1500); err == ErrFail {
			failures++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if failures > 0 {
		t.Fatalf("%d of 50 retry-wrapped samples failed", failures)
	}
}

func TestSubsetBlowupCount(t *testing.T) {
	// |L_n| = 2^n − 2^(k−1) in closed form; the FPRAS must track it even
	// though the automaton is heavily ambiguous.
	k, n := 6, 14
	est, err := New(automata.SubsetBlowup(k), n, Params{K: 64, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(2, float64(n)) - math.Pow(2, float64(k-1))
	got := bigFloatVal(est.Count())
	if re := stats.RelErr(got, want); re > 0.25 {
		t.Fatalf("estimate %f vs %f (rel err %f)", got, want, re)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults(10)
	if p.K < 96 || p.MaxTries <= 0 || p.Delta != 0.1 || p.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	p2 := Params{K: 7, MaxTries: 3, Delta: 0.5, Seed: 2}.withDefaults(10)
	if p2.K != 7 || p2.MaxTries != 3 || p2.Delta != 0.5 || p2.Seed != 2 {
		t.Fatalf("explicit params clobbered: %+v", p2)
	}
	big := Params{Delta: 0.001}.withDefaults(1000)
	if big.K > 1024 {
		t.Fatalf("K cap violated: %d", big.K)
	}
}

func TestCountIntRounding(t *testing.T) {
	n := automata.All(automata.Binary())
	est, err := New(n, 5, Params{K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if est.CountInt().Cmp(big.NewInt(32)) != 0 {
		t.Fatalf("CountInt = %v, want 32", est.CountInt())
	}
}

func TestZeroLength(t *testing.T) {
	acc := automata.New(automata.Binary(), 1)
	acc.SetFinal(0, true)
	est, err := New(acc, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if est.CountInt().Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("ε count = %v", est.CountInt())
	}
	w, err := est.Sample()
	if err != nil || len(w) != 0 {
		t.Fatalf("ε sample = %v, %v", w, err)
	}
}
