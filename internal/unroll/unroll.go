// Package unroll builds the layered directed acyclic graph N_unroll that the
// paper's FPRAS (§6.2) runs on. Lemma 15's enumeration walks its
// backward-pruned form as the edge lists of the counting index
// (internal/lengthrange); PruneBackward, Succs and StartSuccs remain the
// reference for that decision order, by which the exact engines' golden
// record (internal/oracle/testdata/golden_exact.txt) addresses its
// subtree spans. Unrolling an m-state NFA to depth n yields layers
// 0..n+1:
//
//	layer 0    — the single vertex s_start,
//	layers 1..n — one copy of every NFA state,
//	layer n+1  — the single vertex s_final, reached from every accepting
//	             copy in layer n by an edge labeled 1 (the paper's Remark 1).
//
// Every path from s_start to s_final spells w∘1 for a distinct w ∈ L_n(N),
// so |U(s_final)| = |L_n(N)| where U(v) is the set of edge-label strings of
// paths from s_start to v.
//
// # Concurrency
//
// A DAG is immutable once Build returns: Alive, AliveSet, Preds,
// FinalPreds, NumAlive and Empty only read frozen state and are safe for
// concurrent use (the parallel FPRAS build in internal/fpras relies on
// this). Callers must not mutate the returned sets/slices (AliveSet,
// Preds, FinalPreds), nor the source automaton, while any concurrent
// reader exists.
package unroll

import (
	"fmt"
	"sync"

	"repro/internal/automata"
	"repro/internal/bitset"
)

// Vertex identifies a vertex of the unrolled DAG. Layer 0 holds only Start,
// layer n+1 only Final.
type Vertex struct {
	Layer int
	State int // NFA state index; -1 for Start and Final
}

// Edge is an incoming edge of a vertex: the predecessor state in the
// previous layer and the symbol read.
type Edge struct {
	FromState int // -1 when the predecessor is s_start
	Symbol    automata.Symbol
}

// DAG is the unrolled automaton. Vertices in layers 1..n are addressed by
// their NFA state index; presence is tracked with per-layer bit sets because
// pruning removes most of them.
type DAG struct {
	// N is the unrolling depth (witness length).
	N int
	// M is the number of states of the source automaton.
	M int
	// Sigma is the alphabet size of the source automaton.
	Sigma int
	// Src is the source automaton.
	Src *automata.NFA

	// alive[t] marks which states exist at layer t (1-indexed: alive[1] ..
	// alive[N]).
	alive []*bitset.Set
	// preds[t][q] lists the incoming edges of vertex (t, q) from layer t-1.
	// preds[N+1][0] holds the incoming edges of s_final.
	preds [][][]Edge
	// finalPreds lists the accepting layer-N states wired into s_final.
	finalPreds []Edge

	// Forward adjacency, derived lazily from preds on first use (a
	// forward walk in decision order needs it; the FPRAS walks backward
	// and never pays for it). succsOnce makes the derivation safe under concurrent
	// first use; afterwards the slices are frozen like everything else.
	succsOnce  sync.Once
	startSuccs []OutEdge
	succs      [][][]OutEdge // succs[t][q], t in 1..N-1
}

// OutEdge is an outgoing edge of a vertex: the symbol read and the
// successor state in the next layer. Edges into s_final are not
// represented here (see FinalPreds); every layer-N vertex is accepting
// after backward pruning.
type OutEdge struct {
	Symbol automata.Symbol
	To     int
}

// FinalSymbol is the label on the edges into s_final (Remark 1 of the
// paper uses the symbol 1).
const FinalSymbol automata.Symbol = 1

// Options configure Build.
type Options struct {
	// PruneBackward additionally removes vertices that cannot reach
	// s_final (needed by Lemma 15's enumeration DAG; Algorithm 5 of the
	// paper prunes forward only, which is the default).
	PruneBackward bool
}

// Build unrolls nfa to depth n. The automaton must be ε-free. Vertices
// unreachable from s_start are always pruned (step 3 of Algorithm 5).
func Build(nfa *automata.NFA, n int, opts Options) (*DAG, error) {
	if nfa.HasEpsilon() {
		return nil, fmt.Errorf("unroll: automaton has ε-transitions")
	}
	if n < 0 {
		return nil, fmt.Errorf("unroll: negative depth %d", n)
	}
	m := nfa.NumStates()
	d := &DAG{N: n, M: m, Sigma: nfa.Alphabet().Size(), Src: nfa}

	// Forward reachability layer by layer.
	d.alive = make([]*bitset.Set, n+1) // index 1..n used
	cur := bitset.New(m)
	cur.Add(nfa.Start())
	prev := cur
	for t := 1; t <= n; t++ {
		next := bitset.New(m)
		prev.ForEach(func(q int) {
			for a := 0; a < d.Sigma; a++ {
				for _, p := range nfa.Successors(q, a) {
					next.Add(p)
				}
			}
		})
		d.alive[t] = next
		prev = next
	}

	if opts.PruneBackward {
		// Backward: states at layer t that can reach an accepting state at
		// layer N.
		co := bitset.New(m)
		if n >= 1 {
			d.alive[n].ForEach(func(q int) {
				if nfa.IsFinal(q) {
					co.Add(q)
				}
			})
			d.alive[n].IntersectWith(co)
			for t := n - 1; t >= 1; t-- {
				coPrev := bitset.New(m)
				d.alive[t].ForEach(func(q int) {
					for a := 0; a < d.Sigma; a++ {
						for _, p := range nfa.Successors(q, a) {
							if d.alive[t+1].Has(p) {
								coPrev.Add(q)
							}
						}
					}
				})
				d.alive[t].IntersectWith(coPrev)
			}
		}
	}

	// Incoming edge lists.
	d.preds = make([][][]Edge, n+1)
	for t := 1; t <= n; t++ {
		d.preds[t] = make([][]Edge, m)
	}
	if n >= 1 {
		d.alive[1].ForEach(func(p int) {
			for a := 0; a < d.Sigma; a++ {
				for _, succ := range nfa.Successors(nfa.Start(), a) {
					if succ == p {
						d.preds[1][p] = append(d.preds[1][p], Edge{FromState: -1, Symbol: a})
					}
				}
			}
		})
		for t := 2; t <= n; t++ {
			d.alive[t-1].ForEach(func(q int) {
				for a := 0; a < d.Sigma; a++ {
					for _, p := range nfa.Successors(q, a) {
						if d.alive[t].Has(p) {
							d.preds[t][p] = append(d.preds[t][p], Edge{FromState: q, Symbol: a})
						}
					}
				}
			})
		}
		d.alive[n].ForEach(func(q int) {
			if nfa.IsFinal(q) {
				d.finalPreds = append(d.finalPreds, Edge{FromState: q, Symbol: FinalSymbol})
			}
		})
	} else {
		// n == 0: s_final is fed directly by s_start when the start state is
		// accepting; the empty word is the only candidate witness.
		if nfa.IsFinal(nfa.Start()) {
			d.finalPreds = append(d.finalPreds, Edge{FromState: -1, Symbol: FinalSymbol})
		}
	}
	return d, nil
}

// Alive reports whether vertex (layer, state) survived pruning. Layer must
// be in 1..N.
func (d *DAG) Alive(layer, state int) bool {
	if layer < 1 || layer > d.N {
		return false
	}
	return d.alive[layer].Has(state)
}

// AliveSet returns the bit set of states alive at the given layer (1..N).
// The caller must not modify it.
func (d *DAG) AliveSet(layer int) *bitset.Set { return d.alive[layer] }

// Preds returns the incoming edges of vertex (layer, state), layer in 1..N.
func (d *DAG) Preds(layer, state int) []Edge { return d.preds[layer][state] }

// FinalPreds returns the incoming edges of s_final (each an accepting
// layer-N state, or s_start itself when N is 0 and ε is accepted).
func (d *DAG) FinalPreds() []Edge { return d.finalPreds }

// ensureSuccs derives the forward adjacency from the incoming edge lists.
// Iteration is per layer in state order, matching the preds construction,
// so the edge order out of every vertex is deterministic: it is exactly the
// decision-list order Algorithm 1 enumerates in.
func (d *DAG) ensureSuccs() {
	d.succsOnce.Do(func() {
		d.succs = make([][][]OutEdge, d.N)
		for t := 1; t < d.N; t++ {
			d.succs[t] = make([][]OutEdge, d.M)
		}
		for t := 1; t <= d.N; t++ {
			d.alive[t].ForEach(func(q int) {
				for _, edge := range d.preds[t][q] {
					if edge.FromState == -1 {
						d.startSuccs = append(d.startSuccs, OutEdge{Symbol: edge.Symbol, To: q})
					} else {
						d.succs[t-1][edge.FromState] = append(d.succs[t-1][edge.FromState], OutEdge{Symbol: edge.Symbol, To: q})
					}
				}
			})
		}
	})
}

// StartSuccs returns the out-edges of s_start (into layer 1), computed on
// first call and cached. Safe for concurrent use; the caller must not
// mutate the result.
func (d *DAG) StartSuccs() []OutEdge {
	d.ensureSuccs()
	return d.startSuccs
}

// Succs returns the out-edges of vertex (layer, state) for layer in
// 1..N-1, under the same contract as StartSuccs. With backward pruning
// every alive vertex below layer N has at least one out-edge.
func (d *DAG) Succs(layer, state int) []OutEdge {
	d.ensureSuccs()
	return d.succs[layer][state]
}

// NumAlive returns the total number of live vertices in layers 1..N.
func (d *DAG) NumAlive() int {
	c := 0
	for t := 1; t <= d.N; t++ {
		c += d.alive[t].Len()
	}
	return c
}

// Empty reports whether L_n is empty, i.e. s_final has no incoming edges.
func (d *DAG) Empty() bool { return len(d.finalPreds) == 0 }
