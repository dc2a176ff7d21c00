package automata

import (
	"math/big"

	"repro/internal/bitset"
	"repro/internal/limb"
)

// IsUnambiguous reports whether every string accepted by n has exactly one
// accepting run, i.e. whether n is a UFA in the sense of the MEM-UFA
// relation. The test is the classical squared-automaton criterion: n is
// ambiguous iff some off-diagonal pair (p, q) is reachable in the product
// n × n from (start, start) and co-reachable to a pair of final states.
// The automaton must be ε-free.
//
// A deterministic automaton answers true without the product, exactly:
// from a diagonal pair (p, p) each symbol leads only to (δ(p, a),
// δ(p, a)), so the product never leaves the diagonal and no off-diagonal
// pair is reachable. That check is one scan of the successor lists and
// allocates nothing. Otherwise the forward search runs in O(m² · |Σ| ·
// d²) time, and the backward search walks predecessors through n's own
// transposed relation, restricted to the pairs the forward search
// reached: it keeps two m²-bit sets, a stack of reached pairs and one
// predecessor table of n, not m² predecessor lists.
func IsUnambiguous(n *NFA) bool {
	if IsDeterministic(n) {
		return true
	}
	m, sigma := n.NumStates(), n.alpha.Size()
	id := func(p, q int) int { return p*m + q }

	// Forward reachability in the product from the diagonal start.
	reach := bitset.New(m * m)
	stack := []int{id(n.start, n.start)}
	reach.Add(stack[0])
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p, q := v/m, v%m
		for a := 0; a < sigma; a++ {
			for _, pp := range n.delta[p][a] {
				for _, qq := range n.delta[q][a] {
					w := id(pp, qq)
					if !reach.Has(w) {
						reach.Add(w)
						stack = append(stack, w)
					}
				}
			}
		}
	}

	// Backward from the reached pairs of F × F, through reached pairs
	// only (an unreached pair has no reached predecessor anyway). The
	// first off-diagonal pair found co-reachable decides.
	co := bitset.New(m * m)
	for p := 0; p < m; p++ {
		if !n.final[p] {
			continue
		}
		for q := 0; q < m; q++ {
			if v := id(p, q); n.final[q] && reach.Has(v) {
				if p != q {
					return false
				}
				co.Add(v)
				stack = append(stack, v)
			}
		}
	}
	pred := n.transpose(true)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p, q := v/m, v%m
		for a := 0; a < sigma; a++ {
			ps := pred[pred[p*sigma+a]:pred[p*sigma+a+1]]
			if len(ps) == 0 {
				continue
			}
			qs := pred[pred[q*sigma+a]:pred[q*sigma+a+1]]
			for _, pp := range ps {
				for _, qq := range qs {
					u := id(pp, qq)
					if reach.Has(u) && !co.Has(u) {
						if pp != qq {
							return false
						}
						co.Add(u)
						stack = append(stack, u)
					}
				}
			}
		}
	}
	return true
}

// CountAcceptingRuns returns the number of accepting runs of n on w, via a
// run-count dynamic program over the positions of w. For an unambiguous
// automaton the result is 0 or 1 for every w.
func CountAcceptingRuns(n *NFA, w Word) *big.Int {
	m := n.NumStates()
	cur := make([]*big.Int, m)
	next := make([]*big.Int, m)
	for q := 0; q < m; q++ {
		cur[q] = big.NewInt(0)
		next[q] = big.NewInt(0)
	}
	cur[n.start].SetInt64(1)
	for _, a := range w {
		for q := 0; q < m; q++ {
			next[q].SetInt64(0)
		}
		for q := 0; q < m; q++ {
			if cur[q].Sign() == 0 {
				continue
			}
			for _, p := range n.delta[q][a] {
				next[p].Add(next[p], cur[q])
			}
		}
		cur, next = next, cur
	}
	total := big.NewInt(0)
	for q := 0; q < m; q++ {
		if n.final[q] {
			total.Add(total, cur[q])
		}
	}
	return total
}

// CountPaths returns the total number of length-n paths from the start
// state to a final state (counting runs, not strings). For a DFA or UFA
// this equals |L_n|; for an ambiguous NFA it overcounts, which is exactly
// why #NFA is hard (§6.1 of the paper).
//
// The dynamic program runs on two rows of k-limb counts (internal/limb),
// the width fitted by limb.Fit (a carry asks for twice the width): one
// allocation per width tried, where a row of *big.Int per layer would
// allocate per state.
func CountPaths(n *NFA, length int) *big.Int {
	m := n.NumStates()
	if m == 0 {
		return new(big.Int)
	}
	var total []uint64
	_ = limb.Fit(func(k int) (bool, int, error) {
		buf := make([]uint64, (2*m+1)*k)
		cur, next, sum := buf[:m*k], buf[m*k:2*m*k], buf[2*m*k:]
		cur[n.start*k] = 1
		for i := 0; i < length; i++ {
			clear(next)
			for q, row := range n.delta {
				c := cur[q*k : (q+1)*k]
				if limb.IsZero(c) {
					continue
				}
				for _, lst := range row {
					for _, p := range lst {
						if x := next[p*k : (p+1)*k]; limb.Add(x, x, c) != 0 {
							return false, 128 * k, nil
						}
					}
				}
			}
			cur, next = next, cur
		}
		for q, f := range n.final {
			if f && limb.Add(sum, sum, cur[q*k:(q+1)*k]) != 0 {
				return false, 128 * k, nil
			}
		}
		total = sum
		return true, 0, nil
	})
	return limb.ToBig(total)
}

// MaxAmbiguity returns the largest number of accepting runs any single
// string of the given length has, by exhaustive search over L_n. It is
// exponential and exists for tests and diagnostics only.
func MaxAmbiguity(n *NFA, length int) *big.Int {
	maxRuns := big.NewInt(0)
	w := make(Word, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			r := CountAcceptingRuns(n, w)
			if r.Cmp(maxRuns) > 0 {
				maxRuns.Set(r)
			}
			return
		}
		for a := 0; a < n.alpha.Size(); a++ {
			w[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return maxRuns
}
