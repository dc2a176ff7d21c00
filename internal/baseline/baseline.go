// Package baseline implements the estimators the paper's FPRAS is compared
// against:
//
//   - MonteCarloPaths is the natural unbiased estimator sketched (and
//     dismissed) in §6.1: sample a uniform accepting path, reweight by the
//     ambiguity of its string. Unbiased, but its variance is exponential on
//     ambiguity-gap instances, which experiment E6 demonstrates. Its path
//     draw is a uniform rank of the counting index (internal/lengthrange),
//     which on an ambiguous automaton counts and draws accepting runs.
//
// The exact counters they are measured against are exact.CountNFA (the
// on-the-fly subset DP) and internal/oracle (brute force).
package baseline

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/automata"
	"repro/internal/lengthrange"
)

// MonteCarloPaths estimates |L_n(N)| with `samples` path draws: each draw
// picks an accepting path uniformly at random (one uniform rank of the
// [n, n] counting index, whose ranks are the accepting runs), computes the
// ambiguity P_x of its string x, and averages P/P_x where P is the total
// number of accepting paths. The estimator is unbiased: E[P/P_x] =
// Σ_x (P_x/P)(P/P_x) = |L_n|. On automata whose strings have wildly
// different ambiguity it needs exponentially many samples (§6.1).
func MonteCarloPaths(n *automata.NFA, length, samples int, rng *rand.Rand) (*big.Float, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("baseline: automaton has ε-transitions")
	}
	if samples <= 0 {
		return nil, fmt.Errorf("baseline: need a positive sample budget")
	}
	idx, err := lengthrange.Build(n, length, length, 1)
	if err != nil {
		return nil, err
	}
	total := idx.TotalRange()
	if total.Sign() == 0 {
		return big.NewFloat(0), nil
	}
	prec := uint(64 + length)
	sum := new(big.Float).SetPrec(prec)
	draw := idx.NewDrawSession(rng)
	for s := 0; s < samples; s++ {
		w, err := draw.Sample()
		if err != nil {
			return nil, err
		}
		// Reweight by the ambiguity of the sampled string.
		px := automata.CountAcceptingRuns(n, w)
		term := new(big.Float).SetPrec(prec).SetInt(total)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt(px))
		sum.Add(sum, term)
	}
	return sum.Quo(sum, big.NewFloat(float64(samples))), nil
}
