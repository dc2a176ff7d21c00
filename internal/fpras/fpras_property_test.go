package fpras

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/oracle"
)

// Property: with K above every witness-set size, the estimator is exact on
// arbitrary random automata — the exactly-handled path is a complete
// algorithm on its own.
func TestQuickExactWhenKDominates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(6), 0.35, 0.4)
		length := rng.Intn(8)
		est, err := New(n, length, Params{K: 1 << 10, Seed: seed | 1})
		if err != nil {
			return false
		}
		if !est.Exact() {
			return false
		}
		return est.CountInt().Cmp(oracle.Count(n, length)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: samples always have the right length and are witnesses, for
// any K, including tiny sketch sizes that stress the estimation path.
func TestQuickSamplesAreWitnesses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.RandomLayered(rng, automata.Binary(), 6, 3, 2)
		est, err := New(n, 6, Params{K: 8, Seed: seed | 1})
		if err != nil {
			// Tiny K can collapse estimates on adversarial shapes — a
			// documented failure mode, not a bug.
			return true
		}
		for i := 0; i < 5; i++ {
			w, err := est.SampleWitness(3000)
			if err == ErrEmpty {
				return oracle.Count(n, 6).Sign() == 0
			}
			if err != nil {
				return true // Las Vegas exhaustion at K=8 is acceptable
			}
			if len(w) != 6 || !n.Accepts(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the estimate respects disjoint unions — estimating 0·L ∪ 1·L'
// (prefix-disjoint languages) lands near the sum of the parts. This
// catches gross union-estimator bugs that single-instance accuracy tests
// can miss.
func TestUnionEstimateAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		a := automata.RandomLayered(rng, automata.Binary(), 9, 3, 2)
		b := automata.RandomLayered(rng, automata.Binary(), 9, 3, 2)
		// Prefix-disjoint union: 0·L(a) ∪ 1·L(b).
		u := automata.Union(prefix(a, 0), prefix(b, 1))
		wantA, err1 := exact.CountNFA(a, 9, 0)
		wantB, err2 := exact.CountNFA(b, 9, 0)
		if err1 != nil || err2 != nil {
			continue
		}
		want := new(big.Int).Add(wantA, wantB)
		if want.Sign() == 0 {
			continue
		}
		est, err := New(u, 10, Params{K: 64, Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := est.Count().Float64()
		wantF, _ := new(big.Float).SetInt(want).Float64()
		if got < wantF*0.6 || got > wantF*1.4 {
			t.Fatalf("trial %d: union estimate %f vs %f", trial, got, wantF)
		}
	}
}

// prefix prepends one forced symbol to every word of L(n).
func prefix(n *automata.NFA, sym automata.Symbol) *automata.NFA {
	out := automata.New(n.Alphabet(), n.NumStates()+1)
	fresh := n.NumStates()
	out.SetStart(fresh)
	n.EachTransition(func(q int, a automata.Symbol, p int) {
		out.AddTransition(q, a, p)
	})
	for _, f := range n.Finals() {
		out.SetFinal(f, true)
	}
	out.AddTransition(fresh, sym, n.Start())
	return out
}

// Exactness must degrade gracefully: on a fixed instance, increasing K
// can only move the estimator from approximate to exact, never the other
// way.
func TestExactnessMonotoneInK(t *testing.T) {
	n := automata.AmbiguityGap(7) // |L_7| = 128
	exactAt := -1
	for _, k := range []int{16, 64, 256, 1024} {
		est, err := New(n, 7, Params{K: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if est.Exact() {
			if exactAt < 0 {
				exactAt = k
			}
		} else if exactAt >= 0 {
			t.Fatalf("exact at K=%d but approximate again at K=%d", exactAt, k)
		}
	}
	if exactAt < 0 {
		t.Fatal("K=1024 > every |U(s)| at depth 7; should be exact")
	}
}

// The DAG's exactly-handled sets must equal true witness sets: verified
// end to end by exact counts at every prefix length via Count on sliced
// automata.
func TestLayerSlicesConsistent(t *testing.T) {
	n := automata.SubsetBlowup(4)
	for length := 1; length <= 10; length++ {
		est, err := New(n, length, Params{K: 1 << 11, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.CountNFA(n, length, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !est.Exact() || est.CountInt().Cmp(want) != 0 {
			t.Fatalf("length %d: %v (exact=%v) vs %v", length, est.CountInt(), est.Exact(), want)
		}
	}
}
