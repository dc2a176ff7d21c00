package core

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/instcache"
)

// rankedShaped returns the texts of count random DFAs shaped like the
// serving benchmark's ranked tenants: 32–128 states over two to four
// symbols, each state final with probability ½, untrimmed and in the
// codec's transition order.
func rankedShaped(count int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, count)
	for i := range out {
		alpha := automata.NewAlphabet([]string{"a", "b", "c", "d"}[:2+i%3]...)
		out[i] = automata.MarshalString(automata.RandomDFA(rng, alpha, 32+rng.Intn(97), 0.5))
	}
	return out
}

// prepare runs what every nfad request runs before the cache answers:
// parse, core.New (normal form, unambiguity test) and the instance's
// cache key.
func prepare(tb testing.TB, text string, cache *instcache.Cache) *instcache.Key {
	n, err := automata.UnmarshalString(text)
	if err != nil {
		tb.Fatal(err)
	}
	in, err := New(n, 20, Options{Cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	return in.key()
}

// prepareAllocBound is the most allocations one preparation of a
// 128-state σ = 4 DFA may make. The single-pass parser, the successor
// arena and the deterministic unambiguity shortcut make it a constant
// (48 at introduction); the parser it replaced made ≈2,000 on the
// ranked tenants, one or more per line, per successor list and per
// predecessor list.
const prepareAllocBound = 64

// TestPrepareAllocationBound pins the allocation profile of request
// preparation so that per-line, per-state or per-transition allocation
// cannot creep back in.
func TestPrepareAllocationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(128))
	text := automata.MarshalString(automata.RandomDFA(rng, automata.NewAlphabet("a", "b", "c", "d"), 128, 0.5))
	cache := instcache.New(instcache.DefaultBudget)
	allocs := testing.AllocsPerRun(20, func() { prepare(t, text, cache) })
	if allocs > prepareAllocBound {
		t.Fatalf("preparing a 128-state σ = 4 DFA makes %v allocations, bound %d", allocs, prepareAllocBound)
	}
	t.Logf("%v allocations per preparation", allocs)
}

// prepared keeps BenchmarkPrepare's result live.
var prepared *instcache.Key

// BenchmarkPrepare times request preparation (parse, core.New, cache key)
// over 64 ranked-shaped DFAs, one per op, cycling; run it with -benchmem
// and a -benchtime that is a multiple of 64 for the set's mean.
func BenchmarkPrepare(b *testing.B) {
	texts := rankedShaped(64, 11)
	cache := instcache.New(instcache.DefaultBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepared = prepare(b, texts[i%len(texts)], cache)
	}
}
