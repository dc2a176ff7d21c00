package sample

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/leakcheck"
	"repro/internal/lengthrange"
	"repro/internal/oracle"
	"repro/internal/stats"
)

func TestRandBigUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	max := big.NewInt(5)
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := RandBig(rng, max)
		counts[v.Int64()]++
	}
	ok, stat, err := stats.UniformityOK(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("RandBig not uniform: chi2 = %f, counts = %v", stat, counts)
	}
}

func TestRandBigLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	max := new(big.Int).Lsh(big.NewInt(1), 200)
	for i := 0; i < 100; i++ {
		v := RandBig(rng, max)
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("RandBig out of range: %v", v)
		}
	}
}

func TestRandBigPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandBig(0) should panic")
		}
	}()
	RandBig(rand.New(rand.NewSource(3)), big.NewInt(0))
}

func TestUFASamplerPaperExample(t *testing.T) {
	n, length := automata.PaperExample()
	s, err := NewUFASampler(n, length)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRange().Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("Count = %v, want 4", s.TotalRange())
	}
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	const trials = 8000
	for i := 0; i < trials; i++ {
		w, err := s.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[n.Alphabet().FormatWord(w)]++
	}
	// The shared spot check: support containment, full coverage and
	// chi-square uniformity in one call (stats.UniformOverSupport is the
	// same helper the lengthrange and oracle suites use).
	if err := stats.UniformOverSupport(counts, []string{"aaa", "aab", "bba", "bbb"}); err != nil {
		t.Fatalf("sampler not uniform over the paper language: %v", err)
	}
}

func TestUFASamplerMatchesExactCountsOnRandomDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(4), 0.5)
		length := 2 + rng.Intn(4)
		s, err := NewUFASampler(n, length)
		if err != nil {
			t.Fatal(err)
		}
		lang := oracle.Strings(n, length)
		if len(lang) == 0 {
			if _, err := s.Sample(rng); err != lengthrange.ErrEmpty {
				t.Fatalf("empty language should give ErrEmpty, got %v", err)
			}
			continue
		}
		if s.TotalRange().Cmp(big.NewInt(int64(len(lang)))) != 0 {
			t.Fatalf("count mismatch: %v vs %d", s.TotalRange(), len(lang))
		}
		seen := map[string]int{}
		draws := 400 * len(lang)
		if draws > 20000 {
			draws = 20000
		}
		for i := 0; i < draws; i++ {
			w, err := s.Sample(rng)
			if err != nil {
				t.Fatal(err)
			}
			seen[n.Alphabet().FormatWord(w)]++
		}
		if draws >= 100*len(lang) {
			if err := stats.UniformOverSupport(seen, lang); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		} else {
			langSet := map[string]bool{}
			for _, s := range lang {
				langSet[s] = true
			}
			for k := range seen {
				if !langSet[k] {
					t.Fatalf("sampled non-witness %q", k)
				}
			}
		}
	}
}

func TestUFASamplerRejectsAmbiguous(t *testing.T) {
	if _, err := NewUFASampler(automata.AmbiguityGap(3), 3); err == nil {
		t.Fatal("ambiguous automaton must be rejected")
	}
}

func TestUFASamplerRejectsBadInput(t *testing.T) {
	n := automata.New(automata.Binary(), 2)
	n.AddEpsilon(0, 1)
	if _, err := NewUFASampler(n, 2); err == nil {
		t.Fatal("ε-automaton must be rejected")
	}
	ok := automata.Chain(automata.Binary(), automata.Word{0})
	if _, err := NewUFASampler(ok, -1); err == nil {
		t.Fatal("negative length must be rejected")
	}
}

// TestRankUnrankThroughSampler: the sampler's index gives ranked access
// that inverts itself and tracks the language slice.
func TestRankUnrankThroughSampler(t *testing.T) {
	n, length := automata.PaperExample()
	s, err := NewUFASampler(n, length)
	if err != nil {
		t.Fatal(err)
	}
	lang := map[string]bool{}
	total := s.TotalRange().Int64()
	for i := int64(0); i < total; i++ {
		w, err := s.UnrankAt(length, big.NewInt(i))
		if err != nil {
			t.Fatal(err)
		}
		lang[n.Alphabet().FormatWord(w)] = true
		r, err := s.RankAt(w)
		if err != nil || r.Cmp(big.NewInt(i)) != 0 {
			t.Fatalf("Rank(Unrank(%d)) = %v (%v)", i, r, err)
		}
	}
	if len(lang) != int(total) {
		t.Fatalf("unrank covered %d of %d", len(lang), total)
	}
	if _, err := s.UnrankAt(length, big.NewInt(total)); err == nil {
		t.Fatal("Unrank(total) accepted")
	}
}

// TestSampleDistinct: draws are distinct witnesses, a full-size draw is
// the whole language, and oversized requests fail.
func TestSampleDistinct(t *testing.T) {
	n, length := automata.PaperExample()
	s, err := NewUFASampler(n, length)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	ws, err := s.SampleDistinctAt(length, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range ws {
		f := n.Alphabet().FormatWord(w)
		if seen[f] {
			t.Fatalf("duplicate %q in distinct draw", f)
		}
		if !n.Accepts(w) {
			t.Fatalf("non-witness %q", f)
		}
		seen[f] = true
	}
	if len(ws) != 3 {
		t.Fatalf("got %d draws, want 3", len(ws))
	}
	// k = |W| returns the whole slice (in some order).
	all, err := s.SampleDistinctAt(length, 4, rng)
	if err != nil || len(all) != 4 {
		t.Fatalf("full draw: %d words, err %v", len(all), err)
	}
	if _, err := s.SampleDistinctAt(length, 5, rng); err == nil {
		t.Fatal("oversized distinct draw accepted")
	}
	empty := automata.Chain(automata.Binary(), automata.Word{0, 1})
	se, err := NewUFASampler(empty, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.SampleDistinctAt(5, 1, rng); err != lengthrange.ErrEmpty {
		t.Fatalf("empty slice: %v, want ErrEmpty", err)
	}
}

// TestSampleManyWorkerEquivalence: the chunked batch is a pure function of
// (seed, stream, k) — bitwise identical for every worker count.
func TestSampleManyWorkerEquivalence(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(23))
	n := automata.RandomDFA(rng, automata.Binary(), 16, 0.5)
	s, err := NewUFASampler(n, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRange().Sign() == 0 {
		t.Skip("empty slice")
	}
	const k = 200
	base, err := s.SampleMany(7, 0xABC, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != k {
		t.Fatalf("%d draws, want %d", len(base), k)
	}
	for _, workers := range []int{2, 4, 9} {
		got, err := s.SampleMany(7, 0xABC, k, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if n.Alphabet().FormatWord(got[i]) != n.Alphabet().FormatWord(base[i]) {
				t.Fatalf("workers=%d: draw %d = %q, want %q", workers, i,
					n.Alphabet().FormatWord(got[i]), n.Alphabet().FormatWord(base[i]))
			}
		}
	}
}

// TestDrawSessionMatchesSample: a session draw consumes the rng exactly
// like Sample, so the streams coincide draw for draw, and the session
// performs no per-draw heap allocations.
func TestDrawSessionMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := automata.RandomDFA(rng, automata.Binary(), 12, 0.5)
	s, err := NewUFASampler(n, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRange().Sign() == 0 {
		t.Skip("empty slice")
	}
	d := s.NewDrawSession(rand.New(rand.NewSource(99)))
	ref := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		got, err := d.Sample()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Sample(ref)
		if err != nil {
			t.Fatal(err)
		}
		if n.Alphabet().FormatWord(got) != n.Alphabet().FormatWord(want) {
			t.Fatalf("draw %d: session %v vs sampler %v", i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Sample(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DrawSession.Sample allocates %.1f per draw, want 0", allocs)
	}
}

func TestPsiSampleAgreesWithUFASampler(t *testing.T) {
	n, length := automata.PaperExample()
	rng := rand.New(rand.NewSource(6))
	counts := map[string]int{}
	const trials = 4000
	for i := 0; i < trials; i++ {
		w, err := PsiSample(n, length, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[n.Alphabet().FormatWord(w)]++
	}
	if err := stats.UniformOverSupport(counts, []string{"aaa", "aab", "bba", "bbb"}); err != nil {
		t.Fatalf("ψ-sampler not uniform over the paper language: %v", err)
	}
}

func TestPsiSampleEmpty(t *testing.T) {
	n := automata.Chain(automata.Binary(), automata.Word{0, 1})
	rng := rand.New(rand.NewSource(7))
	if _, err := PsiSample(n, 5, rng); err != lengthrange.ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestPsiSampleZeroLength(t *testing.T) {
	alpha := automata.Binary()
	acc := automata.New(alpha, 1)
	acc.SetFinal(0, true)
	acc.AddTransition(0, 0, 0)
	rng := rand.New(rand.NewSource(8))
	w, err := PsiSample(acc, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 0 {
		t.Fatalf("want ε, got %v", w)
	}
	s, err := NewUFASampler(acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err = s.Sample(rng)
	if err != nil || len(w) != 0 {
		t.Fatalf("UFASampler at n=0: %v %v", w, err)
	}
}

func TestSamplerTernaryAlphabet(t *testing.T) {
	alpha := automata.NewAlphabet("a", "b", "c")
	// L_2 = {ab, ac, ba, ca, cc} via a small hand-built DFA-ish UFA.
	n := automata.New(alpha, 4)
	n.SetStart(0)
	n.SetFinal(3, true)
	n.AddTransition(0, 0, 1) // a then b|c
	n.AddTransition(1, 1, 3)
	n.AddTransition(1, 2, 3)
	n.AddTransition(0, 1, 2) // b then a
	n.AddTransition(2, 0, 3)
	n.AddTransition(0, 2, 1) // c then b|c ... shares state 1
	if !automata.IsUnambiguous(n) {
		t.Fatal("test automaton should be unambiguous")
	}
	s, err := NewUFASampler(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.Strings(n, 2)
	if s.TotalRange().Cmp(big.NewInt(int64(len(want)))) != 0 {
		t.Fatalf("count %v != |lang| %d", s.TotalRange(), len(want))
	}
	rng := rand.New(rand.NewSource(9))
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		w, err := s.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[alpha.FormatWord(w)] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("coverage %d of %d: %v", len(seen), len(want), seen)
	}
}
