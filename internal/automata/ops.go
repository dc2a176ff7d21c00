package automata

import (
	"fmt"

	"repro/internal/bitset"
)

// RemoveEpsilon returns an equivalent ε-free NFA over the same alphabet.
// The construction is the textbook one: q gains transition (q, a, p) when
// some r in the ε-closure of q has (r, a, p), and q becomes final when its
// ε-closure meets a final state. The state count is unchanged.
func RemoveEpsilon(n *NFA) *NFA {
	if !n.HasEpsilon() {
		return n.Clone()
	}
	m := n.NumStates()
	closure := make([]*bitset.Set, m)
	for q := 0; q < m; q++ {
		c := bitset.New(m)
		c.Add(q)
		stack := []int{q}
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.eps == nil {
				continue
			}
			for _, p := range n.eps[r] {
				if !c.Has(p) {
					c.Add(p)
					stack = append(stack, p)
				}
			}
		}
		closure[q] = c
	}
	out := New(n.alpha, m)
	out.SetStart(n.start)
	for q := 0; q < m; q++ {
		closure[q].ForEach(func(r int) {
			if n.final[r] {
				out.SetFinal(q, true)
			}
			for a := 0; a < n.alpha.Size(); a++ {
				for _, p := range n.delta[r][a] {
					out.AddTransition(q, a, p)
				}
			}
		})
	}
	return out
}

// Trim returns an automaton restricted to states that are both reachable
// from the start state and co-reachable to a final state, with states
// renumbered densely. If the start state itself is useless the result is a
// one-state automaton with empty language. The automaton must be ε-free.
//
// When every state is already useful the input is returned unchanged (the
// same aliasing contract as Canonicalize): automata are immutable once
// built, and the short-circuit keeps re-trimming an already-trim automaton
// at the cost of the reachability scan alone — the property the compiled-
// index cache's warm key path leans on.
func Trim(n *NFA) *NFA {
	useful := n.Reachable()
	useful.IntersectWith(n.CoReachable())
	if !useful.Has(n.start) {
		return New(n.alpha, 1)
	}
	if useful.Len() == n.NumStates() {
		return n
	}
	return renumber(n, stateOrder(n, useful))
}

// SingleFinal returns an automaton with exactly one final state whose
// length-n language agrees with n's for every n ≥ 1 (the normalization the
// paper applies in §5.3.1; the empty word needs no normalization there
// because fixed-length slices with n ≥ 1 never contain it). Every
// transition (q, a, p) with p final gains a twin (q, a, qf) into a fresh
// unique final state. Distinct accepted strings are preserved exactly, and
// unambiguity is preserved: a UFA's unique accepting run maps to the unique
// run ending in qf.
func SingleFinal(n *NFA) *NFA {
	if n.HasEpsilon() {
		n = RemoveEpsilon(n)
	}
	if len(n.Finals()) == 1 {
		return n.Clone()
	}
	m := n.Clone()
	qf := m.AddState()
	for _, f := range m.Finals() {
		m.SetFinal(f, false)
	}
	m.SetFinal(qf, true)
	n.EachTransition(func(q int, a Symbol, p int) {
		if n.IsFinal(p) {
			m.AddTransition(q, a, qf)
		}
	})
	return m
}

// Union returns an automaton accepting L(a) ∪ L(b). Both inputs must share
// the same alphabet. The result has a fresh start state with ε-edges into
// both operands (removed before returning).
func Union(a, b *NFA) *NFA {
	if a.alpha != b.alpha && a.alpha.Size() != b.alpha.Size() {
		panic("automata: Union over different alphabets")
	}
	total := 1 + a.NumStates() + b.NumStates()
	out := New(a.alpha, total)
	out.SetStart(0)
	offA, offB := 1, 1+a.NumStates()
	a.EachTransition(func(q int, s Symbol, p int) { out.AddTransition(q+offA, s, p+offA) })
	b.EachTransition(func(q int, s Symbol, p int) { out.AddTransition(q+offB, s, p+offB) })
	for _, f := range a.Finals() {
		out.SetFinal(f+offA, true)
	}
	for _, f := range b.Finals() {
		out.SetFinal(f+offB, true)
	}
	out.AddEpsilon(0, a.start+offA)
	out.AddEpsilon(0, b.start+offB)
	return RemoveEpsilon(out)
}

// Intersect returns the product automaton accepting L(a) ∩ L(b). Both
// inputs must be ε-free and share an alphabet (by size).
func Intersect(a, b *NFA) *NFA {
	ma, mb := a.NumStates(), b.NumStates()
	out := New(a.alpha, ma*mb)
	id := func(q, r int) int { return q*mb + r }
	out.SetStart(id(a.start, b.start))
	for q := 0; q < ma; q++ {
		for r := 0; r < mb; r++ {
			if a.final[q] && b.final[r] {
				out.SetFinal(id(q, r), true)
			}
			for s := 0; s < a.alpha.Size(); s++ {
				for _, qp := range a.delta[q][s] {
					for _, rp := range b.delta[r][s] {
						out.AddTransition(id(q, r), s, id(qp, rp))
					}
				}
			}
		}
	}
	return Trim(out)
}

// Complete returns an equivalent automaton in which every state has at
// least one successor per symbol, adding a non-accepting sink if needed.
// Completeness is what Complement requires.
func Complete(n *NFA) *NFA {
	m := n.Clone()
	var sink = -1
	for q := 0; q < m.NumStates(); q++ {
		for a := 0; a < m.alpha.Size(); a++ {
			if len(m.delta[q][a]) == 0 {
				if sink < 0 {
					sink = m.AddState()
					for b := 0; b < m.alpha.Size(); b++ {
						m.AddTransition(sink, b, sink)
					}
				}
				m.AddTransition(q, a, sink)
			}
		}
	}
	return m
}

// Complement returns a DFA accepting the complement language Σ* ∖ L(d).
// The input must be deterministic (determinize first); it is completed and
// its finals flipped.
func Complement(d *NFA) (*NFA, error) {
	if !IsDeterministic(d) {
		return nil, fmt.Errorf("automata: Complement requires a deterministic automaton")
	}
	c := Complete(d)
	for q := 0; q < c.NumStates(); q++ {
		c.SetFinal(q, !c.IsFinal(q))
	}
	return c, nil
}

// Difference returns an automaton accepting L(a) ∖ L(b). b is determinized
// internally (bounded by maxSubsets, 0 = unbounded), so this can blow up —
// it is a testing and tooling helper, not a core algorithm.
func Difference(a, b *NFA, maxSubsets int) (*NFA, error) {
	db, ok := Determinize(b, maxSubsets)
	if !ok {
		return nil, fmt.Errorf("automata: Difference: determinization exceeded %d states", maxSubsets)
	}
	nb, err := Complement(db)
	if err != nil {
		return nil, err
	}
	return Intersect(a, nb), nil
}

// Reverse returns an automaton accepting the reversal of L(n). Multiple
// final states in n become ε-alternatives for the new start.
func Reverse(n *NFA) *NFA {
	m := n.NumStates()
	out := New(n.alpha, m+1)
	fresh := m
	out.SetStart(fresh)
	n.EachTransition(func(q int, a Symbol, p int) { out.AddTransition(p, a, q) })
	for _, f := range n.Finals() {
		out.AddEpsilon(fresh, f)
	}
	out.SetFinal(n.start, true)
	return RemoveEpsilon(out)
}
