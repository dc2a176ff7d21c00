// canonical.go implements the identity the compiled-index cache
// (internal/instcache) files its entries by: Normalize brings an
// automaton to its normal form, StructHash fingerprints that form in one
// pass to pick a bucket, and Equal (codec.go) compares two forms exactly
// within it.
//
// The normal form is ε-free and trimmed, and a deterministic automaton
// is renumbered breadth-first from the start state, successors in symbol
// order (Canonicalize). A trimmed DFA is rigid — that search visits every
// state exactly once in a label-independent order — so any two
// relabellings of one DFA normalize to byte-identical automata and share
// every structural observable. A nondeterministic automaton keeps its
// state order (only the trimmed states drop out), deliberately:
// relabelling a nondeterministic UFA permutes sorted successor lists and
// therefore the observable enumeration block order.
//
// The identity is structural, not language-level: the engine's
// enumeration order follows the numbering (the counting index orders a
// vertex's out-edges by successor state id, not by symbol), so two DFAs
// with one language but non-isomorphic structure count identically yet
// enumerate, rank and sample in different orders, and never share a
// compiled artifact.
package automata

import (
	"fmt"

	"repro/internal/bitset"
)

// mix64 is the splitmix64 finalizer: a cheap bijective bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Relabel returns a copy of n with states renumbered by perm, where
// perm[old] = new. perm must be a permutation of [0, NumStates).
// Successor lists are sorted after renaming, so the result's codec
// depends only on the renamed structure, not on perm's iteration order.
func Relabel(n *NFA, perm []int) *NFA {
	if len(perm) != n.NumStates() {
		panic(fmt.Sprintf("automata: Relabel perm has %d entries for %d states", len(perm), n.NumStates()))
	}
	return renumber(n, perm)
}

// renumber is the one builder behind Trim, Relabel, Canonicalize and
// Normalize: a copy of n with state q renamed perm[q], where a state
// mapped to −1 is dropped together with every edge touching it, and the
// kept states are numbered densely. Successor lists are sorted after
// renaming; the copy is laid out in one arena.
func renumber(n *NFA, perm []int) *NFA {
	states, kept := 0, 0
	for q, row := range n.delta {
		if perm[q] < 0 {
			continue
		}
		states++
		for _, lst := range row {
			for _, p := range lst {
				if perm[p] >= 0 {
					kept++
				}
			}
		}
	}
	b := newPacker(n.alpha, states, kept)
	for q, row := range n.delta {
		if perm[q] < 0 {
			continue
		}
		for a, lst := range row {
			for _, p := range lst {
				if perm[p] >= 0 {
					b.add(perm[p])
				}
			}
			b.close(perm[q], a)
		}
		b.n.final[perm[q]] = n.final[q]
	}
	if n.NumStates() > 0 && perm[n.start] >= 0 {
		b.n.start = perm[n.start]
	}
	for q, es := range n.eps {
		for _, p := range es {
			if perm[q] >= 0 && perm[p] >= 0 {
				b.n.AddEpsilon(perm[q], perm[p])
			}
		}
	}
	return b.n
}

// bfsOrder numbers the states breadth-first from the start state,
// successors in symbol order, skipping states outside keep (nil keeps
// every state): perm[q] is q's number, −1 when the search does not reach
// q. It returns perm, the number of states numbered, and whether every
// state it reached has at most one successor in keep per symbol (so
// whether n restricted to the reached states is deterministic).
func bfsOrder(n *NFA, keep *bitset.Set) (perm []int, count int, det bool) {
	m := n.NumStates()
	buf := make([]int, 2*m)
	perm, order := buf[:m], buf[m:m]
	for i := range perm {
		perm[i] = -1
	}
	if m > 0 {
		perm[n.start] = 0
		order = append(order, n.start)
	}
	det = true
	for i := 0; i < len(order); i++ {
		for _, lst := range n.delta[order[i]] {
			kept := 0
			for _, p := range lst {
				if keep != nil && !keep.Has(p) {
					continue
				}
				kept++
				if perm[p] < 0 {
					perm[p] = len(order)
					order = append(order, p)
				}
			}
			det = det && kept <= 1
		}
	}
	return perm, len(order), det
}

// stateOrder numbers the states of keep densely in state order; perm[q]
// is −1 for the others.
func stateOrder(n *NFA, keep *bitset.Set) []int {
	perm := make([]int, n.NumStates())
	next := 0
	for q := range perm {
		perm[q] = -1
		if keep.Has(q) {
			perm[q] = next
			next++
		}
	}
	return perm
}

// Canonicalize renumbers an ε-free deterministic automaton into its
// canonical form: breadth-first from the start state, successors visited
// in symbol order. On a trimmed DFA every state is reachable, the visit
// order is independent of the input numbering, and two relabellings of one
// DFA therefore produce byte-identical canonical forms — which makes every
// downstream structural observable (enumeration order, ranks, sample
// streams, resume tokens) relabelling-invariant too. States unreachable
// from the start (possible only on untrimmed input) keep their relative
// order at the tail. When the input is already canonically numbered the
// input itself is returned, unchanged and uncopied.
//
// Canonicity holds only for deterministic automata (BFS tie-breaks by
// symbol need a unique successor per symbol); on nondeterministic input
// the renumbering is deterministic but different relabellings need not
// converge.
func Canonicalize(d *NFA) *NFA {
	perm, next, _ := bfsOrder(d, nil)
	identity := true
	for q := range perm {
		if perm[q] < 0 {
			perm[q] = next
			next++
		}
		if perm[q] != q {
			identity = false
		}
	}
	if identity {
		return d
	}
	return renumber(d, perm)
}

// Normalize brings an automaton to the normal form cache entries are
// keyed by and core instances operate on: ε-elimination, trimming,
// and — for deterministic automata — the canonical renumbering, built in
// one copy: the useful states are numbered breadth-first when the useful
// part is deterministic and in state order otherwise, so the result is
// Canonicalize(Trim(n)) for a DFA and Trim(n) otherwise. Two
// relabellings of one DFA normalize to byte-identical automata;
// nondeterministic automata keep their numbering (their enumeration order
// is numbering-dependent and must stay exactly as given). An automaton
// already in normal form is returned itself, uncopied.
func Normalize(n *NFA) *NFA {
	if n.HasEpsilon() {
		n = RemoveEpsilon(n)
	}
	useful := n.Reachable()
	useful.IntersectWith(n.CoReachable())
	if !useful.Has(n.start) {
		return New(n.alpha, 1)
	}
	perm, _, det := bfsOrder(n, useful)
	if !det {
		perm = stateOrder(n, useful)
	}
	for q, p := range perm {
		if p != q {
			return renumber(n, perm)
		}
	}
	return n
}

// StructHash returns a one-pass hash of the exact structure (alphabet
// names, state count, start, finals, labelled and ε transitions in stored
// order). It is NOT relabelling-invariant — it fingerprints a specific
// numbering, which is exactly what a cache bucketed by normalized forms
// wants: after Normalize, relabellings of one DFA hash equal because they
// ARE equal. Collisions are possible; pair it with Equal for an exact
// verdict.
func StructHash(n *NFA) uint64 {
	h := mix64(0x517cc1b727220a95 ^ uint64(n.NumStates())<<1)
	if n.NumStates() > 0 {
		h = mix64(h ^ uint64(n.start)<<1 ^ 1)
	}
	for q, f := range n.final {
		if f {
			h = mix64(h ^ uint64(q)<<1 ^ 0xF1)
		}
	}
	n.EachTransition(func(q int, a Symbol, p int) {
		h = mix64(h ^ mix64(uint64(q)<<40|uint64(a+1)<<20|uint64(p)<<1))
	})
	for q, es := range n.eps {
		for _, p := range es {
			h = mix64(h ^ mix64(uint64(q)<<40|uint64(p)<<1|1))
		}
	}
	for _, name := range n.alpha.names {
		for i := 0; i < len(name); i++ {
			h = mix64(h ^ uint64(name[i]))
		}
		h = mix64(h ^ 0x2C)
	}
	return h
}
