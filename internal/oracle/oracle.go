// Package oracle is the brute-force reference implementation every
// engine in this repository is differentially tested against: exhaustive
// Σⁿ enumeration with direct membership simulation, exact counting by
// explicit listing, and rank-by-position. It is deliberately exponential
// and deliberately independent of the production code paths — it shares
// no DAG, no counting table and no prefix-sum logic with lengthrange,
// enumerate or sample, so a bug in those layers cannot
// cancel out of a comparison. Use it only at small sizes (|Σ|ⁿ words are
// materialized).
//
// The differential suite in this package's tests pits the oracle against
// every engine on a grid of random NFAs and UFAs; CI runs it under the
// race detector with parallel engine configurations.
package oracle

import (
	"math/big"

	"repro/internal/automata"
)

// Words returns L_n(N) as freshly allocated words in symbol-lexicographic
// order, by walking the Σⁿ odometer and testing membership word by word.
func Words(n *automata.NFA, length int) []automata.Word {
	sigma := n.Alphabet().Size()
	var out []automata.Word
	w := make(automata.Word, length)
	var rec func(i int)
	rec = func(i int) {
		if i == length {
			if n.Accepts(w) {
				out = append(out, append(automata.Word(nil), w...))
			}
			return
		}
		for a := 0; a < sigma; a++ {
			w[i] = a
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Strings is Words formatted with the automaton's alphabet.
func Strings(n *automata.NFA, length int) []string {
	words := Words(n, length)
	out := make([]string, len(words))
	for i, w := range words {
		out[i] = n.Alphabet().FormatWord(w)
	}
	return out
}

// Count is exact counting by explicit listing: |Words(n, length)|.
func Count(n *automata.NFA, length int) *big.Int {
	return big.NewInt(int64(len(Words(n, length))))
}

// CountRange is the union size over all lengths in [lo, hi].
func CountRange(n *automata.NFA, lo, hi int) *big.Int {
	total := big.NewInt(0)
	for l := lo; l <= hi; l++ {
		total.Add(total, Count(n, l))
	}
	return total
}

// RankLex returns the position of w in the symbol-lexicographic order of
// L_{len(w)}(N), or -1 when w is not a member — rank by position in the
// explicit listing. The scan is linear on purpose: the listing is in
// symbol-INDEX order, which is string-sorted only for alphabets whose
// single-character names ascend with their indices, and a brute-force
// reference should not assume that.
func RankLex(n *automata.NFA, w automata.Word) int {
	f := n.Alphabet().FormatWord(w)
	for i, s := range Strings(n, len(w)) {
		if s == f {
			return i
		}
	}
	return -1
}

// Member reports membership by direct simulation — the primitive
// everything above is built on, exposed for spot checks.
func Member(n *automata.NFA, w automata.Word) bool { return n.Accepts(w) }

// SetOf returns the language slice as a set of formatted strings, the
// shape sampling checks consume.
func SetOf(n *automata.NFA, length int) map[string]bool {
	out := map[string]bool{}
	for _, s := range Strings(n, length) {
		out[s] = true
	}
	return out
}
