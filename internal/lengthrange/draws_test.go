package lengthrange_test

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/lengthrange"
	"repro/internal/sample"
)

// TestRandBigIntoExported: sample.RandBigInto matches RandBig draw for
// draw, and the index's draws consume exactly that entropy stream — a
// draw from a single-length index is UnrankAt(RandBig(rng, total)) on any
// index covering the length, so sample streams did not move when the
// single-length sampler became a [n, n] index.
func TestRandBigIntoExported(t *testing.T) {
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	max := big.NewInt(1000)
	out := new(big.Int)
	buf := make([]byte, 2)
	for i := 0; i < 100; i++ {
		sample.RandBigInto(a, max, out, buf)
		if want := sample.RandBig(b, max); out.Cmp(want) != 0 {
			t.Fatalf("draw %d: %v vs %v", i, out, want)
		}
	}

	nfa, _ := automata.OverflowBoundary(4)
	const n = 40 // 4^40 = 2^80: a two-limb bound
	single, err := lengthrange.Build(nfa, n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := lengthrange.Build(nfa, n-3, n+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := wide.TotalAt(n)
	got, ref := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		w, err := single.Sample(got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := wide.UnrankAt(n, sample.RandBig(ref, total))
		if err != nil {
			t.Fatal(err)
		}
		if nfa.Alphabet().FormatWord(w) != nfa.Alphabet().FormatWord(want) {
			t.Fatalf("draw %d: index %q, RandBig+UnrankAt %q", i,
				nfa.Alphabet().FormatWord(w), nfa.Alphabet().FormatWord(want))
		}
	}
}
