package unroll

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automata"
)

// countDAGPaths counts s_start → s_final paths in the DAG by dynamic
// programming (runs, not strings).
func countDAGPaths(d *DAG) *big.Int {
	if d.Empty() {
		return big.NewInt(0)
	}
	// ways[t][q] = number of paths from s_start to (t, q).
	ways := make([][]*big.Int, d.N+1)
	for t := 1; t <= d.N; t++ {
		ways[t] = make([]*big.Int, d.M)
		d.AliveSet(t).ForEach(func(q int) {
			total := big.NewInt(0)
			for _, e := range d.Preds(t, q) {
				if e.FromState == -1 {
					total.Add(total, big.NewInt(1))
				} else {
					total.Add(total, ways[t-1][e.FromState])
				}
			}
			ways[t][q] = total
		})
	}
	out := big.NewInt(0)
	for _, e := range d.FinalPreds() {
		if e.FromState == -1 {
			out.Add(out, big.NewInt(1))
		} else {
			out.Add(out, ways[d.N][e.FromState])
		}
	}
	return out
}

// Property (Remark 1 of the paper): the number of s_start → s_final paths
// of the unrolled DAG equals the number of accepting runs of the automaton
// at length N, for both pruning modes — pruning removes only useless
// vertices.
func TestQuickDAGPathsEqualAcceptingRuns(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(5), 0.3, 0.4)
		length := rng.Intn(7)
		want := automata.CountPaths(n, length)
		for _, prune := range []bool{false, true} {
			d, err := Build(n, length, Options{PruneBackward: prune})
			if err != nil {
				return false
			}
			if countDAGPaths(d).Cmp(want) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
