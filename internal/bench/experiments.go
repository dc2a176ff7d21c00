package bench

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/fpras"
	"repro/internal/sample"
	"repro/internal/stats"
	"repro/internal/unroll"
)

// F1PaperExample reproduces the paper's worked example: the Figure 1
// automaton, its Figure 2 DAG, and the §5.3.1 enumeration order.
func F1PaperExample() *Table {
	t := &Table{
		ID:     "F1",
		Title:  "Paper Figures 1–2: example UFA, unrolled DAG, enumeration order",
		Header: []string{"quantity", "value"},
	}
	n, length := automata.PaperExample()
	t.AddRow("states", fmt.Sprint(n.NumStates()))
	t.AddRow("unambiguous", fmt.Sprint(automata.IsUnambiguous(n)))
	e, err := enumerate.NewUFA(n, length)
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	words := enumerate.Collect(n.Alphabet(), e, 0)
	t.AddRow("|L_3|", fmt.Sprint(len(words)))
	t.AddRow("enumeration order", fmt.Sprint(words))
	t.AddRow("exact count (§5.3.2)", exact.CountUFA(n, length).String())
	dag, err := unroll.Build(n, length, unroll.Options{PruneBackward: true})
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	t.AddRow("Figure-2 DAG vertices (layers 1..n)", fmt.Sprint(dag.NumAlive()))
	t.Notes = append(t.Notes,
		"paper: enumeration visits aaa, aab, then the b-branch (§5.3.1 walkthrough)")
	return t
}

// E1ConstantDelay measures per-output delay of Algorithm 1 across instance
// sizes: the delay must track output length n, not automaton size m or the
// number of outputs already produced.
func E1ConstantDelay(quick bool) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Theorem 5: constant-delay enumeration (delay ~ output size, not m)",
		Header: []string{"m(states)", "n(length)", "outputs", "precomp", "mean delay/output", "p99 delay"},
	}
	rng := rand.New(rand.NewSource(1))
	sizes := []struct{ m, n int }{{8, 16}, {32, 16}, {128, 16}, {32, 32}, {32, 64}}
	if quick {
		sizes = sizes[:3]
	}
	for _, sz := range sizes {
		dfa := automata.RandomDFA(rng, automata.Binary(), sz.m, 0.5)
		pre := time.Now()
		e, err := enumerate.NewUFA(dfa, sz.n)
		if err != nil {
			continue
		}
		preTime := time.Since(pre)
		var delays []float64
		outputs := 0
		limit := 20000
		for outputs < limit {
			s := time.Now()
			_, ok := e.Next()
			d := time.Since(s)
			if !ok {
				break
			}
			delays = append(delays, float64(d.Nanoseconds()))
			outputs++
		}
		if len(delays) == 0 {
			t.AddRow(fmt.Sprint(sz.m), fmt.Sprint(sz.n), "0", ms(preTime), "-", "-")
			continue
		}
		sum := stats.Summarize(delays)
		t.AddRow(fmt.Sprint(sz.m), fmt.Sprint(sz.n), fmt.Sprint(outputs),
			ms(preTime),
			us(time.Duration(int64(sum.Mean))),
			us(time.Duration(int64(sum.P99))))
	}
	t.Notes = append(t.Notes, "expected shape: delay grows with n only; flat in m and in #outputs")
	return t
}

// E2ExactCountUFA shows polynomial-time exact counting for the
// unambiguous class at lengths far beyond exhaustive reach.
func E2ExactCountUFA(quick bool) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "§5.3.2: exact #UFA in polynomial time (vs 2^n exhaustive reach)",
		Header: []string{"m", "n", "count bits", "time"},
	}
	rng := rand.New(rand.NewSource(2))
	ns := []int{64, 256, 1024, 4096}
	if quick {
		ns = ns[:3]
	}
	for _, m := range []int{16, 64} {
		dfa := automata.RandomDFA(rng, automata.Binary(), m, 0.5)
		for _, n := range ns {
			s := time.Now()
			c := exact.CountUFA(dfa, n)
			d := time.Since(s)
			t.AddRow(fmt.Sprint(m), fmt.Sprint(n), fmt.Sprint(c.BitLen()), ms(d))
		}
	}
	t.Notes = append(t.Notes, "exhaustive counting is infeasible beyond n≈30; the DP runs at n=4096")
	return t
}

// E3UFASampling validates exact uniformity of the §5.3.3 generator and
// measures throughput, comparing the ψ-based reference sampler with the
// DP sampler.
func E3UFASampling(quick bool) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "§5.3.3: uniform generation for UFAs (exact uniformity)",
		Header: []string{"sampler", "|L|", "draws", "chi2", "pass(99.9%)", "time/draw"},
	}
	n, length := automata.PaperExample()
	draws := 8000
	if quick {
		draws = 3000
	}
	rng := rand.New(rand.NewSource(3))

	s, err := sample.NewUFASampler(n, length)
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	run := func(name string, draw func() (automata.Word, error)) {
		counts := map[string]int{}
		start := time.Now()
		for i := 0; i < draws; i++ {
			w, err := draw()
			if err != nil {
				t.Notes = append(t.Notes, name+" error: "+err.Error())
				return
			}
			counts[n.Alphabet().FormatWord(w)]++
		}
		total := time.Since(start)
		vec := make([]int, 0, len(counts))
		for _, c := range counts {
			vec = append(vec, c)
		}
		ok, stat, _ := stats.UniformityOK(vec)
		t.AddRow(name, fmt.Sprint(len(counts)), fmt.Sprint(draws),
			fmt.Sprintf("%.2f", stat), fmt.Sprint(ok), us(total/time.Duration(draws)))
	}
	run("DP (fast)", func() (automata.Word, error) { return s.Sample(rng) })
	psiDraws := draws
	if !quick {
		psiDraws = draws / 4
	}
	countsDone := 0
	run("ψ-chain (paper)", func() (automata.Word, error) {
		countsDone++
		if countsDone > psiDraws {
			// Keep the ψ sampler's slice smaller; fall back to DP to fill.
			return s.Sample(rng)
		}
		return sample.PsiSample(n, length, rng)
	})
	return t
}

// E4FPRASAccuracy measures the FPRAS relative error against exact counts
// across δ targets — the heart of Theorem 22.
func E4FPRASAccuracy(quick bool) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "Theorem 22: FPRAS relative error vs exact #NFA",
		Header: []string{"family", "m", "n", "K", "exact", "estimate", "rel.err", "time"},
	}
	rng := rand.New(rand.NewSource(4))
	type testCase struct {
		name string
		nfa  *automata.NFA
		n    int
	}
	var cases []testCase
	layers := 12
	if quick {
		layers = 10
	}
	for i := 0; i < 3; i++ {
		cases = append(cases, testCase{
			name: fmt.Sprintf("layered-%d", i),
			nfa:  automata.RandomLayered(rng, automata.Binary(), layers, 5, 2),
			n:    layers,
		})
	}
	cases = append(cases,
		testCase{name: "gap(12,2)", nfa: automata.AmbiguityGap(12), n: 12},
		testCase{name: "blowup(6)", nfa: automata.SubsetBlowup(6), n: 14},
	)
	for _, k := range []int{32, 96} {
		for _, c := range cases {
			want, err := exact.CountNFA(c.nfa, c.n, 0)
			if err != nil || want.Sign() == 0 {
				continue
			}
			start := time.Now()
			est, err := fpras.New(c.nfa, c.n, fpras.Params{K: k, Seed: int64(k)})
			d := time.Since(start)
			if err != nil {
				t.AddRow(c.name, fmt.Sprint(c.nfa.NumStates()), fmt.Sprint(c.n),
					fmt.Sprint(k), want.String(), "error", err.Error(), ms(d))
				continue
			}
			got, _ := est.Count().Float64()
			wantF, _ := new(big.Float).SetInt(want).Float64()
			t.AddRow(c.name, fmt.Sprint(c.nfa.NumStates()), fmt.Sprint(c.n),
				fmt.Sprint(k), want.String(), fmt.Sprintf("%.1f", got),
				fmt.Sprintf("%.3f", stats.RelErr(got, wantF)), ms(d))
		}
	}
	t.Notes = append(t.Notes, "expected shape: rel.err shrinks as K grows; well within 1±δ at K≈96")
	return t
}

// E5FPRASScaling sweeps n, m and K to show polynomial runtime scaling.
func E5FPRASScaling(quick bool) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Theorem 22: FPRAS runtime scaling (polynomial in n, m, K)",
		Header: []string{"sweep", "m", "n", "K", "time"},
	}
	rng := rand.New(rand.NewSource(5))
	mk := func(m, n, k int, sweep string) {
		nfa := automata.RandomLayered(rng, automata.Binary(), n, m, 2)
		start := time.Now()
		_, err := fpras.New(nfa, n, fpras.Params{K: k, Seed: 1})
		d := time.Since(start)
		status := ms(d)
		if err != nil {
			status = "err:" + err.Error()
		}
		t.AddRow(sweep, fmt.Sprint(nfa.NumStates()), fmt.Sprint(n), fmt.Sprint(k), status)
	}
	ns := []int{8, 16, 24, 32}
	ms_ := []int{3, 6, 9}
	ks := []int{16, 32, 64}
	if quick {
		ns = ns[:3]
		ks = ks[:2]
	}
	for _, n := range ns {
		mk(4, n, 32, "n")
	}
	for _, m := range ms_ {
		mk(m, 16, 32, "m")
	}
	for _, k := range ks {
		mk(4, 16, k, "K")
	}
	t.Notes = append(t.Notes, "expected shape: smooth polynomial growth in each parameter")
	return t
}

// E6VsNaiveMC is the §6.1 comparison: the naive Monte-Carlo path estimator
// collapses on weight-concentrated instances while the FPRAS does not.
func E6VsNaiveMC(quick bool) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "§6.1: FPRAS vs naive Monte-Carlo path estimator on gap families",
		Header: []string{"family", "true |L_n|", "MC estimate", "MC rel.err", "FPRAS estimate", "FPRAS rel.err"},
	}
	rng := rand.New(rand.NewSource(6))
	depth := 14
	if quick {
		depth = 12
	}
	mcSamples := 500
	for _, width := range []int{2, 4, 6} {
		n := automata.AmbiguityGapWide(depth, width)
		want := math.Pow(2, float64(depth))
		mc, err := baseline.MonteCarloPaths(n, depth, mcSamples, rng)
		mcStr, mcErrStr := "error", "-"
		if err == nil {
			f, _ := mc.Float64()
			mcStr = fmt.Sprintf("%.1f", f)
			mcErrStr = fmt.Sprintf("%.3f", stats.RelErr(f, want))
		}
		est, err := fpras.New(n, depth, fpras.Params{K: 48, Seed: int64(width)})
		fpStr, fpErrStr := "error", "-"
		if err == nil {
			f, _ := est.Count().Float64()
			fpStr = fmt.Sprintf("%.1f", f)
			fpErrStr = fmt.Sprintf("%.3f", stats.RelErr(f, want))
		}
		t.AddRow(fmt.Sprintf("gap(%d,w=%d)", depth, width),
			fmt.Sprintf("%.0f", want), mcStr, mcErrStr, fpStr, fpErrStr)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("MC uses %d path samples; at width ≥ 4 nearly all paths spell 0^n and the estimate collapses", mcSamples))
	return t
}

// E7PolyDelay measures the flashlight enumerator's per-output delay on
// ambiguous NFAs (Theorem 16).
func E7PolyDelay(quick bool) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Theorem 16: polynomial-delay enumeration for ambiguous NFAs",
		Header: []string{"family", "m", "n", "outputs", "mean delay", "p99 delay"},
	}
	type c struct {
		name string
		nfa  *automata.NFA
		n    int
	}
	cases := []c{
		{"gap(10,2)", automata.AmbiguityGap(10), 10},
		{"blowup(8)", automata.SubsetBlowup(8), 14},
		{"blowup(12)", automata.SubsetBlowup(12), 18},
	}
	if quick {
		cases = cases[:2]
	}
	for _, tc := range cases {
		e, err := enumerate.NewNFA(tc.nfa, tc.n)
		if err != nil {
			continue
		}
		var delays []float64
		outputs := 0
		for outputs < 30000 {
			s := time.Now()
			_, ok := e.Next()
			d := time.Since(s)
			if !ok {
				break
			}
			delays = append(delays, float64(d.Nanoseconds()))
			outputs++
		}
		sum := stats.Summarize(delays)
		t.AddRow(tc.name, fmt.Sprint(tc.nfa.NumStates()), fmt.Sprint(tc.n),
			fmt.Sprint(outputs),
			us(time.Duration(int64(sum.Mean))), us(time.Duration(int64(sum.P99))))
	}
	t.Notes = append(t.Notes, "no duplicates are emitted even though strings have many runs")
	return t
}

// E8PLVUG validates Corollary 23: per-attempt failure bounded away from 1,
// and uniformity conditioned on success.
func E8PLVUG(quick bool) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Corollary 23: Las Vegas uniform generator for NFAs",
		Header: []string{"family", "|L|", "accept rate", "draws", "chi2", "uniform(99.9%)"},
	}
	draws := 12000
	if quick {
		draws = 5000
	}
	n := automata.AmbiguityGap(6) // |L| = 64
	est, err := fpras.New(n, 6, fpras.Params{K: 24, Seed: 8})
	if err != nil {
		t.Notes = append(t.Notes, "error: "+err.Error())
		return t
	}
	counts := map[string]int{}
	attempts, successes := 0, 0
	for successes < draws && attempts < draws*1000 {
		attempts++
		w, err := est.Sample()
		if err == fpras.ErrFail {
			continue
		}
		if err != nil {
			t.Notes = append(t.Notes, "error: "+err.Error())
			return t
		}
		successes++
		counts[automata.Binary().FormatWord(w)]++
	}
	vec := make([]int, 0, len(counts))
	for _, c := range counts {
		vec = append(vec, c)
	}
	ok, stat, _ := stats.UniformityOK(vec)
	t.AddRow("gap(6,2)", fmt.Sprint(len(counts)),
		fmt.Sprintf("%.4f", float64(successes)/float64(attempts)),
		fmt.Sprint(successes), fmt.Sprintf("%.2f", stat), fmt.Sprint(ok))
	t.Notes = append(t.Notes, "acceptance ≈ e⁻⁴ per attempt by design (ϕ₀ = e⁻⁴/R); retries amplify to certainty")
	return t
}
