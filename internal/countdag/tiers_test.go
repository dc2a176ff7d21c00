package countdag_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/lengthrange"
	"repro/internal/limb"
	"repro/internal/unroll"
)

// The cross-width, cross-range differential suite: every per-length
// answer of the single-length index [n, n] at its natural limb width must
// be bitwise identical to that length's answers from a [lo, hi] index
// forced to three limbs, and the overflow-boundary family must widen the
// single-length index exactly where sigma^n crosses 2^64.

// buildBothWidths builds the single-length index through BuildCtx at its
// natural width, and an index over [max(n−2, 0), n+2] forced to three
// limbs, restoring the hook afterwards.
func buildBothWidths(t testing.TB, nfa *automata.NFA, length int) (fast, forced *countdag.Index, dag *unroll.DAG) {
	t.Helper()
	dag, err := unroll.Build(nfa, length, unroll.Options{PruneBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	defer limb.ForceWidth(limb.ForceWidth(1))
	if fast, err = countdag.BuildCtx(nil, dag, 2); err != nil {
		t.Fatal(err)
	}
	limb.ForceWidth(3)
	if forced, err = lengthrange.Build(nfa, max(length-2, 0), length+2, 2); err != nil {
		t.Fatal(err)
	}
	return fast, forced, dag
}

// TestTierDifferentialGrid: on word-sized random DFAs the natural width
// is one limb, the forced index has three, and at length n the totals,
// UnrankAt, RankAt, SubtreeSpanAt and EdgeCumAt of every live vertex
// agree bitwise between the [n, n] index and the [lo, hi] one.
func TestTierDifferentialGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 12; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(8), 0.5)
		n := 1 + rng.Intn(8)
		fast, forced, dag := buildBothWidths(t, dfa, n)
		if fast.Width() != 1 || forced.Width() != 3 {
			t.Fatalf("trial %d: widths %d and %d, want 1 and 3", trial, fast.Width(), forced.Width())
		}
		total := fast.TotalRange()
		if ft, _ := forced.TotalAt(n); total.Cmp(ft) != 0 {
			t.Fatalf("trial %d: totals differ: %v vs %v", trial, total, ft)
		}
		var r big.Int
		for i := int64(0); r.SetInt64(i).Cmp(total) < 0 && i < 200; i++ {
			a, err1 := fast.Unrank(&r)
			b, err2 := forced.UnrankAt(n, &r)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d rank %d: %v / %v", trial, i, err1, err2)
			}
			if dfa.Alphabet().FormatWord(a) != dfa.Alphabet().FormatWord(b) {
				t.Fatalf("trial %d rank %d: widths disagree: %v vs %v", trial, i, a, b)
			}
			ra, err1 := fast.Rank(a)
			rb, err2 := forced.RankAt(b)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d rank %d: rank errors %v / %v", trial, i, err1, err2)
			}
			if ra.Cmp(rb) != 0 || ra.Int64() != i {
				t.Fatalf("trial %d: Rank(Unrank(%d)) = %v (width 1) / %v (width 3)", trial, i, ra, rb)
			}
		}
		// SubtreeSpanAt agrees on every depth-1 path.
		for i := range dag.StartSuccs() {
			path := []int{i}
			f1, c1, err1 := fast.SubtreeSpanAt(n, path)
			f2, c2, err2 := forced.SubtreeSpanAt(n, path)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d: SubtreeSpan errors %v / %v", trial, err1, err2)
			}
			if f1.Cmp(f2) != 0 || c1.Cmp(c2) != 0 {
				t.Fatalf("trial %d: SubtreeSpan widths disagree: (%v,%v) vs (%v,%v)", trial, f1, c1, f2, c2)
			}
		}
		for t2 := 1; t2 < dag.N; t2++ {
			alive := dag.AliveSet(t2)
			if alive == nil {
				continue
			}
			for _, q := range alive.Elems() {
				a, b := fast.EdgeCumAt(n, t2, q), forced.EdgeCumAt(n, t2, q)
				if len(a) != len(dag.Succs(t2, q))+1 || len(a) != len(b) {
					t.Fatalf("trial %d: EdgeCumAt(%d,%d) has %d / %d entries for %d DAG edges", trial, t2, q, len(a), len(b), len(dag.Succs(t2, q)))
				}
				for j := range a {
					if a[j].Cmp(b[j]) != 0 {
						t.Fatalf("trial %d: EdgeCumAt(%d,%d)[%d] differs", trial, t2, q, j)
					}
				}
			}
		}
	}
}

// TestTierOverflowBoundary: the OverflowBoundary family pins the exact
// 2^64 crossing — one length below the straddle the single-length index
// has one limb, at the straddle it must widen to two on its own (no
// hook), both sides match the closed forms (total sigma^n, rank =
// base-sigma numeral), and the range index over both lengths, at two
// limbs, answers each length's probes bitwise like its [n, n] index.
func TestTierOverflowBoundary(t *testing.T) {
	// Pin the hook to its default: this test is about the automatic
	// widening.
	defer limb.ForceWidth(limb.ForceWidth(1))
	nfa, straddle := automata.OverflowBoundary(4)
	sigma := big.NewInt(4)

	below := buildIndex(t, nfa, straddle-1, 2)
	if below.Width() != 1 {
		t.Fatalf("n=%d (below straddle): width %d, want 1", straddle-1, below.Width())
	}
	at := buildIndex(t, nfa, straddle, 2)
	if at.Width() != 2 {
		t.Fatalf("n=%d (straddle): width %d, want 2", straddle, at.Width())
	}
	both, err := lengthrange.Build(nfa, straddle-1, straddle, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		idx *countdag.Index
		n   int
	}{{below, straddle - 1}, {at, straddle}} {
		want := new(big.Int).Exp(sigma, big.NewInt(int64(tc.n)), nil)
		if tc.idx.TotalRange().Cmp(want) != 0 {
			t.Fatalf("n=%d: total %v, want %v", tc.n, tc.idx.TotalRange(), want)
		}
		// Boundary ranks around 2^64 (clamped into range): the unranked
		// word read as a base-4 numeral must equal the rank.
		wordCap := new(big.Int).Lsh(big.NewInt(1), 64)
		probes := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(wordCap, big.NewInt(2)),
			new(big.Int).Sub(wordCap, big.NewInt(1)),
			new(big.Int).Set(wordCap),
			new(big.Int).Sub(want, big.NewInt(1)),
		}
		for _, r := range probes {
			if r.Sign() < 0 || r.Cmp(want) >= 0 {
				continue
			}
			w, err := tc.idx.Unrank(r)
			if err != nil {
				t.Fatalf("n=%d rank %v: %v", tc.n, r, err)
			}
			// Closed-form inverse: digits of r in base 4, most
			// significant first.
			val := new(big.Int)
			for _, a := range w {
				val.Mul(val, sigma)
				val.Add(val, big.NewInt(int64(a)))
			}
			if val.Cmp(r) != 0 {
				t.Fatalf("n=%d: Unrank(%v) reads back as %v", tc.n, r, val)
			}
			rk, err := tc.idx.Rank(w)
			if err != nil {
				t.Fatalf("n=%d rank %v: Rank failed: %v", tc.n, r, err)
			}
			if rk.Cmp(r) != 0 {
				t.Fatalf("n=%d: Rank(Unrank(%v)) = %v", tc.n, r, rk)
			}
			bw, err := both.UnrankAt(tc.n, r)
			if err != nil || nfa.Alphabet().FormatWord(bw) != nfa.Alphabet().FormatWord(w) {
				t.Fatalf("n=%d rank %v: range index unranks %v (%v), [n, n] %v", tc.n, r, bw, err, w)
			}
			if brk, err := both.RankAt(w); err != nil || brk.Cmp(r) != 0 {
				t.Fatalf("n=%d: range RankAt(Unrank(%v)) = %v, %v", tc.n, r, brk, err)
			}
		}
	}
}
