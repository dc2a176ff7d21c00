package oracle

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/lengthrange"
	"repro/internal/sample"
	"repro/internal/unroll"
)

var updateExactGolden = flag.Bool("update", false, "rewrite testdata/golden_exact.txt from the current code")

const exactGoldenPath = "testdata/golden_exact.txt"

// exactCase is one pinned instance of the exact engines: the counting
// index over the single length [n, n] (and everything built on it), and
// the index over [lo, hi].
type exactCase struct {
	name   string
	nfa    *automata.NFA
	n      int
	lo, hi int
}

// exactCases covers every count width the engines meet: four DFAs of the
// serving benchmark's ranked shape (one limb), a non-deterministic UFA,
// the all-words automata at the lengths whose counts straddle 2^64 (two
// limbs), one instance past 2^128 (three limbs), an untrimmed automaton
// whose unreachable state has completion counts wider than any total,
// the n = 0 / lo = 0 edge, six tenants drawn as the serving benchmark's
// ranked workload draws them (lengths 16–32) and a non-deterministic UFA
// at n = 18.
func exactCases(t *testing.T) []exactCase {
	t.Helper()
	var cases []exactCase
	cat := rand.New(rand.NewSource(0x13))
	for i, shape := range []struct{ states, sigma, n int }{{32, 2, 16}, {64, 3, 20}, {96, 4, 24}, {128, 2, 32}} {
		alpha := automata.Binary()
		if shape.sigma == 3 {
			alpha = automata.NewAlphabet("a", "b", "c")
		} else if shape.sigma == 4 {
			alpha = automata.NewAlphabet("a", "b", "c", "d")
		}
		var d *automata.NFA
		for {
			d = automata.Trim(automata.RandomDFA(cat, alpha, shape.states, 0.5))
			if Count(d, 4).Sign() > 0 {
				break
			}
		}
		cases = append(cases, exactCase{fmt.Sprintf("ranked-%d", i), d, shape.n, shape.n / 2, shape.n + 2})
	}

	// A non-deterministic UFA: seeded random NFAs until one is unambiguous
	// without being deterministic and has words at the pinned length.
	ufaRng := rand.New(rand.NewSource(0x5A))
	for {
		cand := automata.Trim(automata.Random(ufaRng, automata.Binary(), 7, 0.22, 0.4))
		if cand.NumStates() < 4 || automata.IsDeterministic(cand) || !automata.IsUnambiguous(cand) {
			continue
		}
		if Count(cand, 10).Int64() >= 8 {
			cases = append(cases, exactCase{"nondet-ufa", cand, 10, 3, 12})
			break
		}
	}

	for _, sigma := range []int{2, 4} {
		all, straddle := automata.OverflowBoundary(sigma)
		cases = append(cases, exactCase{fmt.Sprintf("overflow(%d)", sigma), all, straddle, straddle - 2, straddle + 1})
	}

	wide := automata.Trim(automata.RandomDFA(rand.New(rand.NewSource(0x80)), automata.NewAlphabet("a", "b", "c", "d"), 16, 0.5))
	cases = append(cases, exactCase{"past-2^128", wide, 70, 64, 70})

	// Start 0 reaches only the chain 0 -a-> 1 (1 final, looping on a),
	// one word per length; state 2 is unreachable and accepts all of
	// Σ^r, 4^40 = 2^80 completions at the longest remaining length.
	un := automata.New(automata.NewAlphabet("a", "b", "c", "d"), 3)
	un.SetStart(0)
	un.AddTransition(0, 0, 1)
	un.AddTransition(1, 0, 1)
	un.SetFinal(1, true)
	for a := 0; a < 4; a++ {
		un.AddTransition(2, a, 2)
	}
	un.SetFinal(2, true)
	cases = append(cases, exactCase{"untrimmed-wide", un, 12, 1, 40})

	all2, _ := automata.OverflowBoundary(2)
	cases = append(cases,
		exactCase{"zero-all", all2, 0, 0, 2},
		exactCase{"zero-none", un, 0, 0, 6},
	)

	// Six tenants drawn the way the serving benchmark's ranked workload
	// draws its working set: complete random DFAs of 32–128 states over
	// 2–4 symbols, state count, length and [lo, hi] read off the
	// golden-ratio ladder, trimmed and canonicalized as core.New does,
	// redrawn while the slice at n is empty.
	ladder := func(i, lo, hi int) int {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		return lo + int(frac*float64(hi-lo+1))
	}
	ten := rand.New(rand.NewSource(41))
	for i := 0; i < 6; i++ {
		m := ladder(i, 32, 128)
		alpha := automata.NewAlphabet([]string{"a", "b", "c", "d"}[:2+i%3]...)
		n := ladder(i+7, 16, 32)
		lo := ladder(i+11, 16, 24)
		hi := ladder(i+13, lo+4, 32)
		for {
			d := automata.Trim(automata.RandomDFA(ten, alpha, m, 0.5))
			if automata.IsDeterministic(d) {
				d = automata.Canonicalize(d)
			}
			if exact.CountUFA(d, n).Sign() > 0 {
				cases = append(cases, exactCase{fmt.Sprintf("tenant-%d", i), d, n, lo, hi})
				break
			}
		}
	}

	// A non-deterministic UFA at a served length (n ≥ 16).
	longRng := rand.New(rand.NewSource(0x5B))
	for {
		cand := automata.Trim(automata.Random(longRng, automata.Binary(), 8, 0.2, 0.4))
		if cand.NumStates() < 5 || automata.IsDeterministic(cand) || !automata.IsUnambiguous(cand) {
			continue
		}
		if exact.CountUFA(cand, 18).Cmp(big.NewInt(64)) >= 0 {
			return append(cases, exactCase{"nondet-ufa-long", cand, 18, 14, 22})
		}
	}
}

// goldenRanks are the ranks every case unranks: 0, 1, ⌊total/3⌋,
// total−1 and the limb boundaries 2^64−1, 2^64, 2^128, each when below
// total, in ascending order without repeats.
func goldenRanks(total *big.Int) []*big.Int {
	if total.Sign() == 0 {
		return nil
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	cands := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Div(total, big.NewInt(3)),
		new(big.Int).Sub(total, big.NewInt(1)),
		new(big.Int).Sub(two64, big.NewInt(1)),
		two64,
		new(big.Int).Lsh(big.NewInt(1), 128),
	}
	var out []*big.Int
	for _, c := range cands {
		if c.Cmp(total) >= 0 {
			continue
		}
		dup := false
		for _, o := range out {
			if o.Cmp(c) == 0 {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Cmp(out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func digits(w automata.Word) string {
	var b strings.Builder
	for _, a := range w {
		b.WriteByte(byte('0' + a))
	}
	if b.Len() == 0 {
		return "ε"
	}
	return b.String()
}

// streamLine renders a sample stream as its length, a SHA-256 of the
// words and the first and last word, so the file stays small while any
// changed draw changes the line.
func streamLine(label string, ws []automata.Word, err error) string {
	if errors.Is(err, lengthrange.ErrEmpty) {
		return label + " empty\n"
	}
	if err != nil {
		return fmt.Sprintf("%s error %v\n", label, err)
	}
	h := sha256.New()
	for _, w := range ws {
		h.Write([]byte(digits(w) + "\n"))
	}
	first, last := "-", "-"
	if len(ws) > 0 {
		first, last = digits(ws[0]), digits(ws[len(ws)-1])
	}
	return fmt.Sprintf("%s k=%d sha256=%x first=%s last=%s\n", label, len(ws), h.Sum(nil)[:12], first, last)
}

// exactRecord renders everything the golden file pins for one case.
func exactRecord(t *testing.T, c exactCase) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "case %s states=%d sigma=%d n=%d range=[%d,%d]\n", c.name, c.nfa.NumStates(), c.nfa.Alphabet().Size(), c.n, c.lo, c.hi)

	idx, err := lengthrange.Build(c.nfa, c.n, c.n, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := idx.TotalRange()
	fmt.Fprintf(&b, "total %v\n", total)
	for _, r := range goldenRanks(total) {
		w, err := idx.UnrankAt(c.n, r)
		if err != nil {
			t.Fatalf("%s: Unrank(%v): %v", c.name, r, err)
		}
		rk, err := idx.RankAt(w)
		if err != nil {
			t.Fatalf("%s: Rank: %v", c.name, err)
		}
		fmt.Fprintf(&b, "unrank %v %s rank %v\n", r, digits(w), rk)
	}
	s, err := sample.NewUFASampler(c.nfa, c.n)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		ws, err := s.SampleMany(0x5EED, 3, 64, w)
		b.WriteString(streamLine(fmt.Sprintf("sampleMany w=%d", w), ws, err))
	}
	{
		ds := s.NewDrawSession(rand.New(rand.NewSource(31)))
		var ws []automata.Word
		var err error
		for i := 0; i < 32 && err == nil; i++ {
			var w automata.Word
			if w, err = ds.Sample(); err == nil {
				ws = append(ws, append(automata.Word(nil), w...))
			}
		}
		b.WriteString(streamLine("drawSession", ws, err))
		rng := rand.New(rand.NewSource(37))
		ws, err = nil, nil
		for i := 0; i < 8 && err == nil; i++ {
			var w automata.Word
			if w, err = s.Sample(rng); err == nil {
				ws = append(ws, w)
			}
		}
		b.WriteString(streamLine("sample", ws, err))
	}
	if c.n > 0 && total.Sign() > 0 {
		// Decision paths of the backward-pruned unrolled DAG, the
		// reference for the index's decision order.
		dag, err := unroll.Build(c.nfa, c.n, unroll.Options{PruneBackward: true})
		if err != nil {
			t.Fatal(err)
		}
		starts := dag.StartSuccs()
		for _, i := range []int{0, len(starts) - 1} {
			paths := [][]int{{i}}
			if c.n > 1 {
				next := len(dag.Succs(1, starts[i].To))
				paths = append(paths, []int{i, 0}, []int{i, next - 1})
			}
			for _, p := range paths {
				first, count, err := idx.SubtreeSpanAt(c.n, p)
				if err != nil {
					t.Fatalf("%s: SubtreeSpan(%v): %v", c.name, p, err)
				}
				fmt.Fprintf(&b, "span %v first %v count %v\n", p, first, count)
			}
		}
	}

	e, err := enumerate.OpenUFA(idx, c.n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e.Next()
	}
	tok, _ := e.Token()
	rc, err := e.RankCursor()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "tokens %s %s\n", tok, rc.Token())

	st, err := enumerate.OpenUFA(idx, c.n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		st.Next()
	}
	before, _ := st.Remaining()
	sh, ok := st.SplitSteal()
	after, _ := st.Remaining()
	fmt.Fprintf(&b, "steal ok=%v prefix=%v lo=%d ceil=%v remaining %v -> %v\n", ok, sh.Prefix(), sh.Lo(), sh.Ceil(), before, after)

	ri, err := lengthrange.Build(c.nfa, c.lo, c.hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	rtotal := ri.TotalRange()
	fmt.Fprintf(&b, "range total %v at", rtotal)
	for n := c.lo; n <= c.hi; n++ {
		tn, err := ri.TotalAt(n)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, " %v", tn)
	}
	b.WriteByte('\n')
	for _, r := range goldenRanks(rtotal) {
		w, err := ri.UnrankRange(r)
		if err != nil {
			t.Fatalf("%s: UnrankRange(%v): %v", c.name, r, err)
		}
		rk, err := ri.RankRange(w)
		if err != nil {
			t.Fatalf("%s: RankRange: %v", c.name, err)
		}
		fmt.Fprintf(&b, "range unrank %v %s rank %v\n", r, digits(w), rk)
	}
	for _, w := range []int{1, 4} {
		ws, err := ri.SampleMany(0x5EED, 5, 64, w)
		b.WriteString(streamLine(fmt.Sprintf("range sampleMany w=%d", w), ws, err))
	}
	{
		ds := ri.NewDrawSession(rand.New(rand.NewSource(41)))
		var ws []automata.Word
		var err error
		for i := 0; i < 32 && err == nil; i++ {
			var w automata.Word
			if w, err = ds.Sample(); err == nil {
				ws = append(ws, append(automata.Word(nil), w...))
			}
		}
		b.WriteString(streamLine("range drawSession", ws, err))
		rng := rand.New(rand.NewSource(43))
		ws, err = nil, nil
		for i := 0; i < 8 && err == nil; i++ {
			var w automata.Word
			if w, err = ri.Sample(rng); err == nil {
				ws = append(ws, w)
			}
		}
		b.WriteString(streamLine("range sample", ws, err))
	}
	fp := enumerate.Fingerprint(c.nfa)
	sess, err := enumerate.NewRangeSession(c.lo, c.hi, fp, func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		if cursor != "" {
			return enumerate.Resume(c.nfa, cursor)
		}
		return enumerate.NewUFA(c.nfa, length)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sess.Next()
	}
	rtok, _ := sess.Token()
	sess.Close()
	fmt.Fprintf(&b, "range token %s\n", rtok)
	return b.String()
}

// TestExactGolden pins the exact engines' output — counts, ranks, words,
// sample streams, steal splits and resume tokens of the counting index
// (single-length and range), sample and enumerate — against
// testdata/golden_exact.txt, recorded when single lengths still had their
// own DAG-based index (internal/countdag). The cross-width suites compare
// two builds of the same code, so only this test fails when a rewrite of
// the sweep, the descent or the draw changes an output bit. Regenerate
// with -update only for a change meant to alter the output.
func TestExactGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range exactCases(t) {
		got.WriteString(exactRecord(t, c))
	}
	if *updateExactGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exactGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(exactGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			var line string
			if i < len(gotLines) {
				line = gotLines[i]
			}
			t.Fatalf("%s line %d:\n got  %q\n want %q", exactGoldenPath, i+1, line, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d output lines, %s has %d", len(gotLines), exactGoldenPath, len(wantLines))
	}
}
