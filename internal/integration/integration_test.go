// Package integration cross-checks whole pipelines against each other:
// every counting routine must agree (exactly or within FPRAS error), every
// enumerator must produce the language the counters count, and every
// sampler must hit only witnesses. These tests intentionally cross module
// boundaries; per-module behaviour is covered in each package's own tests.
package integration

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/fpras"
	"repro/internal/graphdb"
	"repro/internal/oracle"
	"repro/internal/regex"
	"repro/internal/sample"
	"repro/internal/spanner"
	"repro/internal/stats"
	"repro/internal/transducer"
)

// TestCountersAgreeOnRandomNFAs: brute force, subset DP, flashlight
// enumeration count, and (for UFAs) the path DP all agree.
func TestCountersAgreeOnRandomNFAs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.Trim(automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4))
		length := rng.Intn(7)
		brute := oracle.Count(n, length)
		subset, err := exact.CountNFA(n, length, 0)
		if err != nil || subset.Cmp(brute) != 0 {
			return false
		}
		e, err := enumerate.NewNFA(n, length)
		if err != nil {
			return false
		}
		enumCount := int64(len(enumerate.Collect(n.Alphabet(), e, 0)))
		if enumCount != brute.Int64() {
			return false
		}
		if automata.IsUnambiguous(n) {
			if exact.CountUFA(n, length).Cmp(brute) != 0 {
				return false
			}
			ue, err := enumerate.NewUFA(n, length)
			if err != nil {
				return false
			}
			if int64(len(enumerate.Collect(n.Alphabet(), ue, 0))) != brute.Int64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFPRASWithinToleranceProperty: on random layered instances with
// feasible exact counts, the FPRAS estimate is within a generous envelope
// and the average error is small.
func TestFPRASWithinToleranceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	trials, sumErr := 0, 0.0
	for i := 0; i < 10; i++ {
		n := automata.RandomLayered(rng, automata.Binary(), 8, 3, 2)
		want, err := exact.CountNFA(n, 8, 0)
		if err != nil || want.Sign() == 0 {
			continue
		}
		est, err := fpras.New(n, 8, fpras.Params{K: 48, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := est.Count().Float64()
		wantF, _ := new(big.Float).SetInt(want).Float64()
		re := stats.RelErr(got, wantF)
		if re > 0.5 {
			t.Fatalf("trial %d: rel err %f (got %f want %f)", i, re, got, wantF)
		}
		sumErr += re
		trials++
	}
	if trials < 5 {
		t.Fatalf("too few trials: %d", trials)
	}
	if avg := sumErr / float64(trials); avg > 0.12 {
		t.Fatalf("average error %f too high", avg)
	}
}

// TestTransducerToCorePipeline: compile the SAT-DNF transducer, hand the
// automaton to core, and compare everything against formula-level truth.
func TestTransducerToCorePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	f := dnf.Random(rng, 8, 3, 3)
	m := f.Machine()
	nfa, err := transducer.Compile(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.New(nfa, f.NumVars, core.Options{K: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := f.CountExact()
	ws, err := inst.Witnesses(0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ws)) != want.Int64() {
		t.Fatalf("enumerated %d, want %v", len(ws), want)
	}
	for _, s := range ws {
		assign := make([]bool, f.NumVars)
		for i := range s {
			assign[i] = s[i] == '1'
		}
		if !f.Eval(assign) {
			t.Fatalf("enumerated non-model %s", s)
		}
	}
	if want.Sign() > 0 {
		w, err := inst.Sample()
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]bool, f.NumVars)
		for i, b := range w {
			assign[i] = b == 1
		}
		if !f.Eval(assign) {
			t.Fatalf("sampled non-model %v", w)
		}
	}
}

// TestRegexAcrossAllEngines: a regex language sliced at a fixed length,
// checked across enumeration, exact counting, FPRAS and sampling.
func TestRegexAcrossAllEngines(t *testing.T) {
	alpha := automata.Binary()
	nfa, err := regex.Compile("(0|1)*11(0|1)*", alpha) // contains "11"
	if err != nil {
		t.Fatal(err)
	}
	length := 10
	want, err := exact.CountNFA(nfa, length, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: 2^10 − F(12) where F is Fibonacci (strings avoiding 11):
	// F(12) = 144 with F(1)=1, F(2)=2 convention → 1024 − 233? Use the
	// recurrence a(n) = a(n-1)+a(n-2), a(0)=1, a(1)=2 → a(10) = 144.
	if got := want.Int64(); got != 1024-144 {
		t.Fatalf("exact = %d, want %d", got, 1024-144)
	}
	inst, err := core.New(nfa, length, core.Options{K: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := inst.Witnesses(0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(ws)) != want.Int64() {
		t.Fatalf("enumeration %d vs exact %v", len(ws), want)
	}
	est, _, err := inst.Count()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := est.Float64()
	if re := stats.RelErr(got, float64(want.Int64())); re > 0.25 {
		t.Fatalf("FPRAS %f vs %v (rel err %f)", got, want, re)
	}
	for i := 0; i < 20; i++ {
		w, err := inst.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !nfa.Accepts(w) {
			t.Fatalf("non-witness %v", w)
		}
	}
}

// TestSpannerEndToEnd: oracle mappings = decoded enumeration = count, and
// samples decode to oracle mappings.
func TestSpannerEndToEnd(t *testing.T) {
	sigma := []byte("ab")
	a := spanner.NewEVA([]string{"x"}, 4)
	for _, ch := range sigma {
		a.AddLetter(0, ch, 0)
		a.AddLetter(3, ch, 3)
	}
	a.AddSet(0, spanner.Open(0), 1)
	a.AddLetter(1, 'a', 2)
	a.AddSet(2, spanner.Close(0), 3)
	a.SetFinal(3, true)
	if !a.IsFunctional() {
		t.Fatal("not functional")
	}
	doc := "abaabbaa"
	inst, err := spanner.BuildInstance(a, doc)
	if err != nil {
		t.Fatal(err)
	}
	oracle := spanner.AllMappings(a, doc)
	ci, err := core.New(inst.N, inst.Length, core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cnt, _, err := ci.Count()
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := cnt.Float64()
	if int(cf) != len(oracle) {
		t.Fatalf("count %f vs oracle %d", cf, len(oracle))
	}
	ms, err := inst.Enumerate(ci, core.CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	got := map[string]bool{}
	for {
		mp, ok := ms.Next()
		if !ok {
			break
		}
		got[mp.Format(a.Vars)] = true
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("enumerated %d mappings, oracle %d", len(got), len(oracle))
	}
	for _, mp := range oracle {
		if !got[mp.Format(a.Vars)] {
			t.Fatalf("missing mapping %s", mp.Format(a.Vars))
		}
	}
}

// TestGraphSamplingUniformOverPaths: for an RPQ instance small enough to
// enumerate, the PLVUG's empirical distribution over paths is uniform.
func TestGraphSamplingUniformOverPaths(t *testing.T) {
	labels := automata.NewAlphabet("a", "b")
	g := graphdb.NewGraph(4, labels)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 0, 2)
	g.AddEdge(1, 1, 3)
	g.AddEdge(2, 1, 3)
	g.AddEdge(1, 0, 3)
	g.AddEdge(3, 0, 0)
	q, err := graphdb.NewRPQ("(a|b)*", labels)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := graphdb.BuildProduct(g, q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := 4
	paths := graphdb.AllPaths(g, q, 0, 3, n)
	if len(paths) < 2 {
		t.Skip("degenerate instance")
	}
	ci, err := core.New(prod.N, n, core.Options{K: 256, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 300*len(paths); i++ {
		w, err := ci.Sample()
		if err != nil {
			t.Fatal(err)
		}
		p := prod.WordToPath(w)
		if _, ok := g.ValidPath(p, 0, 3); !ok {
			t.Fatalf("invalid sampled path %v", p)
		}
		counts[g.FormatPath(p)]++
	}
	if len(counts) != len(paths) {
		t.Fatalf("coverage %d of %d paths", len(counts), len(paths))
	}
	vec := make([]int, 0, len(counts))
	for _, c := range counts {
		vec = append(vec, c)
	}
	if ok, stat, _ := stats.UniformityOK(vec); !ok {
		t.Fatalf("path sampling biased: chi2 = %f", stat)
	}
}

// TestBDDPipelinesAgree: OBDD exact pipeline vs nOBDD FPRAS pipeline on
// the same underlying function.
func TestBDDPipelinesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	obdd := bdd.RandomOBDD(rng, 10, 3)
	nob := bdd.RandomNOBDD(rng, 10, 3, 3)
	for _, d := range []*bdd.Diagram{obdd, nob} {
		n := d.NFA()
		want, err := exact.CountNFA(n, d.NumVars, 0)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := core.New(n, d.NumVars, core.Options{K: 64, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		est, isExact, err := ci.Count()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := est.Float64()
		wantF, _ := new(big.Float).SetInt(want).Float64()
		if isExact {
			if got != wantF {
				t.Fatalf("exact path disagrees: %f vs %f", got, wantF)
			}
		} else if wantF > 0 {
			if re := stats.RelErr(got, wantF); re > 0.35 {
				t.Fatalf("FPRAS %f vs %f (rel err %f)", got, wantF, re)
			}
		}
	}
}

// TestBaselineAndFPRASDisagreeOnlyWhereExpected: the E6 story as a test.
func TestBaselineAndFPRASDisagreeOnlyWhereExpected(t *testing.T) {
	depth := 12
	n := automata.AmbiguityGapWide(depth, 4)
	rng := rand.New(rand.NewSource(109))
	mc, err := baseline.MonteCarloPaths(n, depth, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	mcF, _ := mc.Float64()
	est, err := fpras.New(n, depth, fpras.Params{K: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fpF, _ := est.Count().Float64()
	want := float64(int(1) << depth)
	if stats.RelErr(fpF, want) > 0.25 {
		t.Fatalf("FPRAS wrong: %f vs %f", fpF, want)
	}
	if stats.RelErr(mcF, want) < 0.5 {
		t.Fatalf("MC unexpectedly accurate: %f vs %f", mcF, want)
	}
}

// TestUFAPsiAndDPSamplersSameDistribution: both exact samplers agree with
// the uniform distribution on a nontrivial UFA.
func TestUFAPsiAndDPSamplersSameDistribution(t *testing.T) {
	d := bdd.Parity(5) // 16 odd-parity assignments
	n := d.NFA()
	rng := rand.New(rand.NewSource(111))
	s, err := sample.NewUFASampler(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, draw := range map[string]func() (automata.Word, error){
		"dp":  func() (automata.Word, error) { return s.Sample(rng) },
		"psi": func() (automata.Word, error) { return sample.PsiSample(n, 5, rng) },
	} {
		counts := map[string]int{}
		for i := 0; i < 4800; i++ {
			w, err := draw()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			counts[automata.Binary().FormatWord(w)]++
		}
		if len(counts) != 16 {
			t.Fatalf("%s: coverage %d of 16", name, len(counts))
		}
		vec := make([]int, 0, 16)
		for _, c := range counts {
			vec = append(vec, c)
		}
		if ok, stat, _ := stats.UniformityOK(vec); !ok {
			t.Fatalf("%s: biased (chi2 = %f)", name, stat)
		}
	}
}
