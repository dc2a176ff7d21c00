// Package baseline implements the estimators the paper's FPRAS is compared
// against:
//
//   - MonteCarloPaths is the natural unbiased estimator sketched (and
//     dismissed) in §6.1: sample a uniform accepting path, reweight by the
//     ambiguity of its string. Unbiased, but its variance is exponential on
//     ambiguity-gap instances, which experiment E6 demonstrates.
//
// The exact counters they are measured against are exact.CountNFA (the
// on-the-fly subset DP) and internal/oracle (brute force).
package baseline

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/sample"
)

// MonteCarloPaths estimates |L_n(N)| with `samples` path draws: each draw
// picks an accepting path uniformly at random (weighting transitions by
// accepting-path completions), computes the ambiguity P_x of its string x,
// and averages P/P_x where P is the total number of accepting paths. The
// estimator is unbiased: E[P/P_x] = Σ_x (P_x/P)(P/P_x) = |L_n|. On
// automata whose strings have wildly different ambiguity it needs
// exponentially many samples (§6.1).
func MonteCarloPaths(n *automata.NFA, length, samples int, rng *rand.Rand) (*big.Float, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("baseline: automaton has ε-transitions")
	}
	if samples <= 0 {
		return nil, fmt.Errorf("baseline: need a positive sample budget")
	}
	// comp[r][q] = number of accepting paths of length r from q.
	comp := exact.CompletionCounts(n, length)
	total := comp[length][n.Start()]
	if total.Sign() == 0 {
		return big.NewFloat(0), nil
	}
	prec := uint(64 + length)
	sum := new(big.Float).SetPrec(prec)
	w := make(automata.Word, length)
	for s := 0; s < samples; s++ {
		// Draw a uniform accepting path by completion-weighted walking.
		q := n.Start()
		for r := length; r > 0; r-- {
			pick := sample.RandBig(rng, comp[r][q])
			acc := new(big.Int)
			done := false
			for a := 0; a < n.Alphabet().Size() && !done; a++ {
				for _, p := range n.Successors(q, a) {
					c := comp[r-1][p]
					if c.Sign() == 0 {
						continue
					}
					acc.Add(acc, c)
					if pick.Cmp(acc) < 0 {
						w[length-r] = a
						q = p
						done = true
						break
					}
				}
			}
			if !done {
				return nil, fmt.Errorf("baseline: inconsistent completion counts")
			}
		}
		// Reweight by the ambiguity of the sampled string.
		px := automata.CountAcceptingRuns(n, w)
		term := new(big.Float).SetPrec(prec).SetInt(total)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt(px))
		sum.Add(sum, term)
	}
	return sum.Quo(sum, big.NewFloat(float64(samples))), nil
}
