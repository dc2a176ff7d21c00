package lengthrange

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/unroll"
)

// BenchmarkRangeBuild: the E18 build comparison on the 64-state depth-20
// family (N = 16 lengths) — the shared cross-length sweep must do
// measurably less work than hi−lo+1 independent countdag builds (the
// acceptance bar is ≥ 2× fewer allocs/op; measured ≈ 5×, because the
// shared tables are keyed by remaining length and so track the single
// longest length instead of the sum over all of them).
func BenchmarkRangeBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	dfa := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	const lo, hi = 5, 20
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(dfa, lo, hi, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for n := lo; n <= hi; n++ {
				dag, err := unroll.Build(dfa, n, unroll.Options{PruneBackward: true})
				if err != nil {
					b.Fatal(err)
				}
				countdag.Build(dag, 1)
			}
		}
	})
}

// BenchmarkRangeSample: steady-state range draws — indexed (one rank +
// one descent, fresh word) vs session mode, which must stay at 0
// allocs/draw.
func BenchmarkRangeSample(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	dfa := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	ri, err := Build(dfa, 5, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	if ri.TotalRange().Sign() == 0 {
		b.Skip("empty range")
	}
	b.Run("indexed", func(b *testing.B) {
		draw := rand.New(rand.NewSource(18))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ri.Sample(draw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		d := ri.NewDrawSession(rand.New(rand.NewSource(18)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
