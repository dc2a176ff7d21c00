package instcache

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
)

// BenchmarkKeyFor measures the warm-path key cost: one Normalize pass plus
// the structural pre-hash, on the E20 family (64-state binary DFA).
func BenchmarkKeyFor(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := automata.Normalize(automata.RandomDFA(rng, automata.Binary(), 64, 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KeyFor(n)
	}
}

// BenchmarkWarmLookup measures a full warm lookup hit, key included.
func BenchmarkWarmLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	n := automata.Normalize(automata.RandomDFA(rng, automata.Binary(), 64, 0.5))
	c := New(DefaultBudget)
	if _, _, err := c.RangeIndex(nil, KeyFor(n), 20, 20, 1000, buildAt(n, 20)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := c.RangeIndex(nil, KeyFor(n), 20, 20, 1000, buildAt(n, 20)); err != nil || !hit {
			b.Fatal("expected warm hit")
		}
	}
}

// BenchmarkWarmLookupRelabelled is the E20 warm path as callers actually
// hit it: the key is computed from a non-canonical relabelling, so every
// lookup pays the reachability scan plus the canonical renumbering copy
// before the pre-key hash and bucket verification.
func BenchmarkWarmLookupRelabelled(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	base := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	rel := automata.Relabel(base, rng.Perm(base.NumStates()))
	c := New(DefaultBudget)
	if _, _, err := c.RangeIndex(nil, KeyFor(base), 20, 20, 1000, buildAt(automata.Normalize(base), 20)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := KeyFor(rel)
		if _, hit, err := c.RangeIndex(nil, key, 20, 20, 1000, buildAt(key.Norm(), 20)); err != nil || !hit {
			b.Fatal("expected warm hit")
		}
	}
}
