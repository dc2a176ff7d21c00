package lengthrange

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/automata"
)

// rankedTenants draws count DFAs the way the serving benchmark's ranked
// workload draws its working set (perfbench ulTenants): complete random
// DFAs of 32–128 states over 2–4 symbols, the state count read off the
// golden-ratio ladder, redrawn while empty at length 16, in the normal
// form core.New builds.
func rankedTenants(count int, seed int64) []*automata.NFA {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*automata.NFA, count)
	for i := range out {
		_, frac := math.Modf(float64(i) * 0.6180339887498949)
		m := 32 + int(frac*97)
		alpha := automata.NewAlphabet([]string{"a", "b", "c", "d"}[:2+i%3]...)
		for {
			d := automata.Normalize(automata.RandomDFA(rng, alpha, m, 0.5))
			if automata.CountPaths(d, 16).Sign() > 0 {
				out[i] = d
				break
			}
		}
	}
	return out
}

// BenchmarkRangeBuild: the E18 build comparison on the 64-state depth-20
// family (N = 16 lengths) — the shared cross-length sweep must do
// measurably less work than hi−lo+1 single-length [n, n] builds (the
// acceptance bar is ≥ 2× fewer allocs/op; measured ≈ 5×, because the
// shared tables are keyed by remaining length and so track the single
// longest length instead of the sum over all of them) — and the build
// on the serving path at one worker and at GOMAXPROCS, below and above
// the inline cut-over (tenants/…, large/…).
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
				if _, err := Build(dfa, n, n, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// The serving path: 64 ranked-shaped tenants at [16, 32], one build
	// per op, cycling (a -benchtime multiple of 64 gives the set's mean),
	// below the inline cut-over; and one DFA of thousands of states, whose
	// layers are above it.
	tenants := rankedTenants(64, 41)
	large := automata.Normalize(automata.RandomDFA(rand.New(rand.NewSource(13114)), automata.Binary(), 16384, 0.5))
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("tenants/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tenants[i%len(tenants)], 16, 32, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("large/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(large, 16, 32, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
