// Package exact implements the exact counting algorithms of the paper:
//
//   - CountUFA (§5.3.2): |L_n(N)| for an unambiguous NFA by the #L path
//     dynamic program — paths and strings coincide for UFAs.
//   - CountNFA: exact #NFA by an on-the-fly subset construction. This is
//     the baseline that is correct for every NFA but exponential in the
//     worst case; the FPRAS in internal/fpras exists because of it.
//   - CountBrute: exhaustive Σⁿ membership, the last-resort test oracle.
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

// CompletionCounts returns, for every state q and remaining length r in
// 0..length, the number of accepting paths of length r starting at q. The
// result is indexed out[r][q]. For a UFA, out[r][q] = |{w : |w| = r, w
// leads q to acceptance}|; these are the weights the fast uniform sampler
// uses (§5.3.3 realized by dynamic programming rather than repeated ψ
// quotients — the distributions agree, see internal/sample).
func CompletionCounts(n *automata.NFA, length int) [][]*big.Int {
	m := n.NumStates()
	out := make([][]*big.Int, length+1)
	out[0] = make([]*big.Int, m)
	for q := 0; q < m; q++ {
		if n.IsFinal(q) {
			out[0][q] = big.NewInt(1)
		} else {
			out[0][q] = big.NewInt(0)
		}
	}
	for r := 1; r <= length; r++ {
		out[r] = make([]*big.Int, m)
		for q := 0; q < m; q++ {
			s := big.NewInt(0)
			for a := 0; a < n.Alphabet().Size(); a++ {
				for _, p := range n.Successors(q, a) {
					s.Add(s, out[r-1][p])
				}
			}
			out[r][q] = s
		}
	}
	return out
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

// CountBrute enumerates Σⁿ and tests membership: the O(|Σ|ⁿ·n·m) oracle
// used to validate everything else at small sizes.
func CountBrute(n *automata.NFA, length int) *big.Int {
	total := big.NewInt(0)
	w := make(automata.Word, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			if n.Accepts(w) {
				total.Add(total, big.NewInt(1))
			}
			return
		}
		for a := 0; a < n.Alphabet().Size(); a++ {
			w[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return total
}

// LanguageSlice returns L_n(N) as formatted strings in lexicographic symbol
// order. Exponential; for tests and tiny demos only.
func LanguageSlice(n *automata.NFA, length int) []string {
	var out []string
	w := make(automata.Word, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			if n.Accepts(w) {
				out = append(out, n.Alphabet().FormatWord(w))
			}
			return
		}
		for a := 0; a < n.Alphabet().Size(); a++ {
			w[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
