// Package exact implements the exact counting algorithms of the paper:
//
//   - CountUFA (§5.3.2): |L_n(N)| for an unambiguous NFA by the #L path
//     dynamic program — paths and strings coincide for UFAs.
//   - CountNFA: exact #NFA by an on-the-fly subset construction. This is
//     the baseline that is correct for every NFA but exponential in the
//     worst case; the FPRAS in internal/fpras exists because of it.
//
// The table of completion counts that ranked access and uniform
// generation read is the counting index of internal/lengthrange. CountUFA
// keeps its own pass (automata.CountPaths) because a single-length count
// needs no table: two k-limb rows and no cache traffic, 26–36 µs per
// served count on the serving benchmark's ranked tenants against
// 187–214 µs for one [16, 32] index build, both on a shared 2-vCPU Xeon
// (BENCH_15.json, BENCH_18.json). The serving benchmark calls it too.
//
// The brute-force reference both are tested against is internal/oracle.
//
// All counters return math/big integers since |L_n| can reach |Σ|ⁿ.
package exact

import (
	"fmt"
	"math/big"

	"repro/internal/automata"
	"repro/internal/bitset"
)

// CountUFA returns |L_n(N)| for an unambiguous automaton by counting
// accepting paths of length n (Proposition 14 / §5.3.2 of the paper: for a
// UFA the number of accepting runs equals the number of accepted strings).
// The caller is responsible for unambiguity; use automata.IsUnambiguous to
// verify, or CountNFA for arbitrary automata.
func CountUFA(n *automata.NFA, length int) *big.Int {
	if length < 0 {
		return big.NewInt(0)
	}
	return automata.CountPaths(n, length)
}

// MaxSubsetStates bounds CountNFA's subset explosion; see CountNFA.
const DefaultMaxSubsets = 1 << 22

// CountNFA returns the exact |L_n(N)| for an arbitrary ε-free NFA by
// running the path dynamic program over *subsets* of states (an on-the-fly
// determinization). Distinct strings reach distinct subset trajectories, so
// no string is double counted. The number of live subsets can grow
// exponentially; when it would exceed maxSubsets (0 means
// DefaultMaxSubsets), an error is returned. This is the exact baseline the
// FPRAS is benchmarked against (experiment E4/E6).
func CountNFA(n *automata.NFA, length int, maxSubsets int) (*big.Int, error) {
	if maxSubsets <= 0 {
		maxSubsets = DefaultMaxSubsets
	}
	if length < 0 {
		return big.NewInt(0), nil
	}
	m := n.NumStates()
	sigma := n.Alphabet().Size()
	type cell struct {
		set   *bitset.Set
		count *big.Int
	}
	cur := map[string]*cell{}
	start := bitset.New(m)
	start.Add(n.Start())
	cur[start.Key()] = &cell{set: start, count: big.NewInt(1)}

	for t := 0; t < length; t++ {
		next := map[string]*cell{}
		for _, c := range cur {
			for a := 0; a < sigma; a++ {
				succ := bitset.New(m)
				c.set.ForEach(func(q int) {
					for _, p := range n.Successors(q, a) {
						succ.Add(p)
					}
				})
				if succ.Empty() {
					continue
				}
				key := succ.Key()
				if existing, ok := next[key]; ok {
					existing.count.Add(existing.count, c.count)
				} else {
					if len(next) >= maxSubsets {
						return nil, fmt.Errorf("exact: subset construction exceeded %d states at layer %d", maxSubsets, t+1)
					}
					next[key] = &cell{set: succ, count: new(big.Int).Set(c.count)}
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return big.NewInt(0), nil
		}
	}

	total := big.NewInt(0)
	finals := n.FinalSet()
	for _, c := range cur {
		if c.set.Intersects(finals) {
			total.Add(total, c.count)
		}
	}
	return total, nil
}
