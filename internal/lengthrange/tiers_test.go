package lengthrange

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/limb"
)

// The cross-width differential suite for the range index: indexes at the
// natural limb width and forced to three limbs over the same automaton
// must agree bitwise on every rank, word, and sample stream, and the
// overflow family must widen the index exactly when a per-length total
// (or the grand total) crosses 2^64 mid-index.

// buildRangeBothWidths builds the same range twice, at the natural width
// and forced to three limbs, restoring the hook afterwards.
func buildRangeBothWidths(t testing.TB, nfa *automata.NFA, lo, hi int) (fast, forced *RangeIndex) {
	t.Helper()
	defer limb.ForceWidth(limb.ForceWidth(1))
	fast, err := Build(nfa, lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	limb.ForceWidth(3)
	forced, err = Build(nfa, lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	return fast, forced
}

// TestRangeTierDifferentialGrid: on word-sized random DFAs the two widths
// agree bitwise on totals, global and per-length rank/unrank, SplitRank,
// and on entire sample streams (seeded Sample loop, SampleMany, and
// DrawSession draws consume identical randomness at both widths).
func TestRangeTierDifferentialGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		nfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(6), 0.5)
		lo, hi := rng.Intn(3), 4+rng.Intn(4)
		fast, forced := buildRangeBothWidths(t, nfa, lo, hi)
		if fast.Width() != 1 || forced.Width() != 3 {
			t.Fatalf("trial %d: widths %d and %d, want 1 and 3", trial, fast.Width(), forced.Width())
		}
		if fast.TotalRange().Cmp(forced.TotalRange()) != 0 {
			t.Fatalf("trial %d: TotalRange differs: %v vs %v", trial, fast.TotalRange(), forced.TotalRange())
		}
		for n := lo; n <= hi; n++ {
			a, err1 := fast.TotalAt(n)
			b, err2 := forced.TotalAt(n)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d n=%d: TotalAt errors %v / %v", trial, n, err1, err2)
			}
			if a.Cmp(b) != 0 {
				t.Fatalf("trial %d n=%d: TotalAt differs: %v vs %v", trial, n, a, b)
			}
			fa, err1 := fast.FirstRankOf(n)
			fb, err2 := forced.FirstRankOf(n)
			if err1 != nil || err2 != nil || fa.Cmp(fb) != 0 {
				t.Fatalf("trial %d n=%d: FirstRankOf differs: %v/%v (%v/%v)", trial, n, fa, fb, err1, err2)
			}
		}
		grand := fast.TotalRange()
		var r big.Int
		for i := int64(0); r.SetInt64(i).Cmp(grand) < 0 && i < 150; i++ {
			wa, err1 := fast.UnrankRange(&r)
			wb, err2 := forced.UnrankRange(&r)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d rank %d: %v / %v", trial, i, err1, err2)
			}
			if nfa.Alphabet().FormatWord(wa) != nfa.Alphabet().FormatWord(wb) {
				t.Fatalf("trial %d rank %d: widths disagree: %v vs %v", trial, i, wa, wb)
			}
			ra, err1 := fast.RankRange(wa)
			rb, err2 := forced.RankRange(wb)
			if err1 != nil || err2 != nil || ra.Cmp(rb) != 0 || ra.Int64() != i {
				t.Fatalf("trial %d rank %d: RankRange %v/%v (%v/%v)", trial, i, ra, rb, err1, err2)
			}
			na, wia, err1 := fast.SplitRank(&r)
			nb, wib, err2 := forced.SplitRank(&r)
			if err1 != nil || err2 != nil || na != nb || wia.Cmp(wib) != 0 {
				t.Fatalf("trial %d rank %d: SplitRank (%d,%v)/(%d,%v)", trial, i, na, wia, nb, wib)
			}
		}
		if grand.Sign() == 0 {
			continue
		}
		// Bitwise-equal sample streams: every width must consume the
		// byte stream the same way.
		rngA := rand.New(rand.NewSource(1000 + int64(trial)))
		rngB := rand.New(rand.NewSource(1000 + int64(trial)))
		for d := 0; d < 50; d++ {
			wa, err1 := fast.Sample(rngA)
			wb, err2 := forced.Sample(rngB)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d draw %d: %v / %v", trial, d, err1, err2)
			}
			if nfa.Alphabet().FormatWord(wa) != nfa.Alphabet().FormatWord(wb) {
				t.Fatalf("trial %d draw %d: sample streams diverge: %v vs %v", trial, d, wa, wb)
			}
		}
		sa := fast.NewDrawSession(rand.New(rand.NewSource(2000 + int64(trial))))
		sb := forced.NewDrawSession(rand.New(rand.NewSource(2000 + int64(trial))))
		for d := 0; d < 50; d++ {
			wa, err1 := sa.Sample()
			wb, err2 := sb.Sample()
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d session draw %d: %v / %v", trial, d, err1, err2)
			}
			if nfa.Alphabet().FormatWord(wa) != nfa.Alphabet().FormatWord(wb) {
				t.Fatalf("trial %d session draw %d: streams diverge", trial, d)
			}
		}
		ma, err1 := fast.SampleMany(int64(trial), 0xBEEF, 40, 3)
		mb, err2 := forced.SampleMany(int64(trial), 0xBEEF, 40, 3)
		if err1 != nil || err2 != nil || len(ma) != len(mb) {
			t.Fatalf("trial %d: SampleMany %v / %v", trial, err1, err2)
		}
		for d := range ma {
			if nfa.Alphabet().FormatWord(ma[d]) != nfa.Alphabet().FormatWord(mb[d]) {
				t.Fatalf("trial %d: SampleMany[%d] diverges", trial, d)
			}
		}
	}
}

// TestRangeTierOverflowMidIndex: a range of the OverflowBoundary family
// that straddles 2^64 must widen to two limbs on its own, stay bitwise
// consistent with closed-form totals (sigma^n) and base-sigma rank
// semantics, and agree with the one-limb single-length [n, n] index on
// the lengths below the straddle — the cross-width, cross-range check.
func TestRangeTierOverflowMidIndex(t *testing.T) {
	// Pin the hook to its default: this test is about the automatic
	// widening.
	defer limb.ForceWidth(limb.ForceWidth(1))
	nfa, straddle := automata.OverflowBoundary(4)
	sigma := big.NewInt(4)
	lo, hi := straddle-2, straddle
	ri, err := Build(nfa, lo, hi, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Width() != 2 {
		t.Fatalf("overflowing range has width %d, want 2", ri.Width())
	}
	grand := new(big.Int)
	for n := lo; n <= hi; n++ {
		want := new(big.Int).Exp(sigma, big.NewInt(int64(n)), nil)
		total, err := ri.TotalAt(n)
		if err != nil {
			t.Fatal(err)
		}
		if total.Cmp(want) != 0 {
			t.Fatalf("n=%d: TotalAt %v, want %v", n, total, want)
		}
		grand.Add(grand, want)
	}
	if ri.TotalRange().Cmp(grand) != 0 {
		t.Fatalf("TotalRange %v, want %v", ri.TotalRange(), grand)
	}

	// Lengths below the straddle are word-sized in isolation: the
	// single-length index serves them at one limb, and the two indexes
	// must agree bitwise across the widths.
	for n := lo; n < straddle; n++ {
		idx, err := Build(nfa, n, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Width() != 1 {
			t.Fatalf("n=%d: per-length index below straddle has width %d", n, idx.Width())
		}
		total, _ := ri.TotalAt(n)
		probes := []*big.Int{
			big.NewInt(0),
			big.NewInt(12345),
			new(big.Int).Sub(total, big.NewInt(1)),
		}
		for _, r := range probes {
			a, err1 := ri.UnrankAt(n, r)
			b, err2 := idx.UnrankAt(n, r)
			if err1 != nil || err2 != nil {
				t.Fatalf("n=%d rank %v: %v / %v", n, r, err1, err2)
			}
			if nfa.Alphabet().FormatWord(a) != nfa.Alphabet().FormatWord(b) {
				t.Fatalf("n=%d rank %v: range (two limbs) and [n, n] (one limb) disagree", n, r)
			}
			ra, err1 := ri.RankAt(a)
			rb, err2 := idx.RankAt(b)
			if err1 != nil || err2 != nil || ra.Cmp(rb) != 0 || ra.Cmp(r) != 0 {
				t.Fatalf("n=%d rank %v: RankAt %v, [n, n] %v (%v/%v)", n, r, ra, rb, err1, err2)
			}
		}
	}

	// Global ranks that bracket 2^64: unrank, read the word back as a
	// base-4 numeral offset by the span start, and invert through
	// RankRange.
	wordCap := new(big.Int).Lsh(big.NewInt(1), 64)
	probes := []*big.Int{
		big.NewInt(0),
		new(big.Int).Sub(wordCap, big.NewInt(1)),
		new(big.Int).Set(wordCap),
		new(big.Int).Add(wordCap, big.NewInt(7)),
		new(big.Int).Sub(grand, big.NewInt(1)),
	}
	for _, r := range probes {
		w, err := ri.UnrankRange(r)
		if err != nil {
			t.Fatalf("UnrankRange(%v): %v", r, err)
		}
		first, err := ri.FirstRankOf(len(w))
		if err != nil {
			t.Fatal(err)
		}
		val := new(big.Int)
		for _, a := range w {
			val.Mul(val, sigma)
			val.Add(val, big.NewInt(int64(a)))
		}
		val.Add(val, first)
		if val.Cmp(r) != 0 {
			t.Fatalf("UnrankRange(%v): closed-form reads back %v", r, val)
		}
		rk, err := ri.RankRange(w)
		if err != nil {
			t.Fatal(err)
		}
		if rk.Cmp(r) != 0 {
			t.Fatalf("RankRange(UnrankRange(%v)) = %v", r, rk)
		}
	}

	// Out-of-range global ranks are rejected at two limbs too.
	if _, err := ri.UnrankRange(grand); err == nil {
		t.Fatal("UnrankRange(grand total) accepted")
	}
}
