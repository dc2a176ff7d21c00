// Package automata implements the nondeterministic finite automata that all
// of the paper's algorithms operate on: construction, ε-removal, products,
// trimming, subset construction, ambiguity analysis, binary-alphabet
// encoding, serialization, and the random instance families used by the
// benchmark harness.
//
// Following the paper (Arenas et al., PODS 2019), an NFA here has no
// ε-transitions; ε-edges exist only transiently during construction and are
// eliminated by RemoveEpsilon. The central relation is
//
//	MEM-NFA = {((N, 0^k), w) : |w| = k and N accepts w}
//
// so most algorithms care about the slice L_n(N) of the language at a fixed
// length n.
package automata

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/bitset"
)

// Symbol is an index into an automaton's alphabet. Symbols are dense small
// integers so transition tables can be plain slices.
type Symbol = int

// Word is a string over an automaton's alphabet, one Symbol per position.
type Word = []Symbol

// Alphabet maps between human-readable symbol names and dense Symbol ids.
type Alphabet struct {
	names []string
	index map[string]int
}

// NewAlphabet builds an alphabet from the given distinct symbol names.
func NewAlphabet(names ...string) *Alphabet {
	a := &Alphabet{index: make(map[string]int, len(names))}
	for _, n := range names {
		if _, dup := a.index[n]; dup {
			panic("automata: duplicate alphabet symbol " + n)
		}
		a.index[n] = len(a.names)
		a.names = append(a.names, n)
	}
	return a
}

// Binary is the two-letter alphabet {0, 1} used by the FPRAS core.
func Binary() *Alphabet { return NewAlphabet("0", "1") }

// Size returns the number of symbols.
func (a *Alphabet) Size() int { return len(a.names) }

// Name returns the printable name of symbol s.
func (a *Alphabet) Name(s Symbol) string {
	if s < 0 || s >= len(a.names) {
		return fmt.Sprintf("?%d", s)
	}
	return a.names[s]
}

// Names returns the symbol names in id order.
func (a *Alphabet) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// Symbol returns the id for a name, and whether the name is known.
func (a *Alphabet) Symbol(name string) (Symbol, bool) {
	s, ok := a.index[name]
	return s, ok
}

// MustSymbol returns the id for a name, panicking if unknown. Intended for
// tests and literals.
func (a *Alphabet) MustSymbol(name string) Symbol {
	s, ok := a.index[name]
	if !ok {
		panic("automata: unknown symbol " + name)
	}
	return s
}

// WordOf converts a sequence of symbol names to a Word.
func (a *Alphabet) WordOf(names ...string) Word {
	w := make(Word, len(names))
	for i, n := range names {
		w[i] = a.MustSymbol(n)
	}
	return w
}

// FormatWord renders a word with this alphabet's symbol names.
func (a *Alphabet) FormatWord(w Word) string {
	var sb strings.Builder
	for _, s := range w {
		sb.WriteString(a.Name(s))
	}
	return sb.String()
}

// ParseWord is the inverse of FormatWord: it reads s as a sequence of
// symbol names, taking the longest name that matches at every position,
// and fails where no name matches.
func (a *Alphabet) ParseWord(s string) (Word, error) {
	var w Word
	for len(s) > 0 {
		best, bestLen := -1, 0
		for i, name := range a.names {
			if len(name) > bestLen && strings.HasPrefix(s, name) {
				best, bestLen = i, len(name)
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("witness %q: no alphabet symbol matches at %q", s, s[:1])
		}
		w = append(w, best)
		s = s[bestLen:]
	}
	return w, nil
}

// NFA is a nondeterministic finite automaton without ε-transitions, with a
// single start state and a set of final states, exactly the machine model of
// the MEM-NFA relation. States are 0..NumStates()-1.
type NFA struct {
	alpha *Alphabet
	start int
	final []bool
	// delta[q][a] lists the successors of q on symbol a, sorted ascending.
	delta [][][]int
	// eps[q] lists ε-successors during construction; nil once ε-free.
	eps [][]int
}

// New returns an NFA with the given alphabet and number of states, start
// state 0, no final states and no transitions. The per-state rows of
// successor-list headers share one allocation.
func New(alpha *Alphabet, states int) *NFA {
	sigma := alpha.Size()
	if sigma > 0 && states > math.MaxInt/sigma {
		panic(fmt.Sprintf("automata: %d states over %d symbols overflow the transition table", states, sigma))
	}
	n := &NFA{alpha: alpha, final: make([]bool, states), delta: make([][][]int, states)}
	rows := make([][]int, states*sigma)
	for q := range n.delta {
		n.delta[q] = rows[q*sigma : (q+1)*sigma : (q+1)*sigma]
	}
	return n
}

// packer lays the successor lists of a new automaton into one arena. For
// every (q, a) in any order, callers add the list's targets and then
// close it; close sorts and deduplicates the list and capacity-clips it
// (arena[lo:hi:hi]), so a later AddTransition reallocates that list
// instead of overwriting the next one. The arena is sized once, by the
// transition count the caller passes, and does not grow unless the
// caller passes too few. The parser, Trim and Relabel build through it:
// O(states·σ + transitions) time in a constant number of allocations,
// where AddTransition would allocate per list.
type packer struct {
	n     *NFA
	arena []int
	lo    int // start of the open list in arena
}

func newPacker(alpha *Alphabet, states, transitions int) packer {
	return packer{n: New(alpha, states), arena: make([]int, 0, transitions)}
}

func (b *packer) add(p int) { b.arena = append(b.arena, p) }

// close makes the targets added since the last close the successor list
// of q on a.
func (b *packer) close(q int, a Symbol) {
	lst := b.arena[b.lo:]
	if len(lst) > 1 {
		slices.Sort(lst)
		lst = slices.Compact(lst)
		b.arena = b.arena[:b.lo+len(lst)]
	}
	if len(lst) > 0 {
		b.n.delta[q][a] = lst[:len(lst):len(lst)]
	}
	b.lo = len(b.arena)
}

// Alphabet returns the automaton's alphabet.
func (n *NFA) Alphabet() *Alphabet { return n.alpha }

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.delta) }

// Start returns the start state.
func (n *NFA) Start() int { return n.start }

// SetStart makes q the start state.
func (n *NFA) SetStart(q int) {
	n.checkState(q)
	n.start = q
}

// IsFinal reports whether q is a final state.
func (n *NFA) IsFinal(q int) bool { return n.final[q] }

// SetFinal marks q as final (or clears the mark).
func (n *NFA) SetFinal(q int, f bool) {
	n.checkState(q)
	n.final[q] = f
}

// Finals returns the final states in increasing order.
func (n *NFA) Finals() []int {
	var out []int
	for q, f := range n.final {
		if f {
			out = append(out, q)
		}
	}
	return out
}

// FinalSet returns the final states as a bit set.
func (n *NFA) FinalSet() *bitset.Set {
	s := bitset.New(n.NumStates())
	for q, f := range n.final {
		if f {
			s.Add(q)
		}
	}
	return s
}

// AddState appends a fresh non-final state and returns its id.
func (n *NFA) AddState() int {
	q := len(n.delta)
	n.delta = append(n.delta, make([][]int, n.alpha.Size()))
	n.final = append(n.final, false)
	if n.eps != nil {
		n.eps = append(n.eps, nil)
	}
	return q
}

func (n *NFA) checkState(q int) {
	if q < 0 || q >= len(n.delta) {
		panic(fmt.Sprintf("automata: state %d out of range [0,%d)", q, len(n.delta)))
	}
}

func (n *NFA) checkSymbol(a Symbol) {
	if a < 0 || a >= n.alpha.Size() {
		panic(fmt.Sprintf("automata: symbol %d out of range [0,%d)", a, n.alpha.Size()))
	}
}

// AddTransition inserts the transition (q, a, p). Duplicate insertions are
// idempotent; successor lists stay sorted.
func (n *NFA) AddTransition(q int, a Symbol, p int) {
	n.checkState(q)
	n.checkState(p)
	n.checkSymbol(a)
	lst := n.delta[q][a]
	i := sort.SearchInts(lst, p)
	if i < len(lst) && lst[i] == p {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = p
	n.delta[q][a] = lst
}

// AddEpsilon inserts an ε-transition q → p, used only while building; call
// RemoveEpsilon before handing the automaton to any algorithm.
func (n *NFA) AddEpsilon(q, p int) {
	n.checkState(q)
	n.checkState(p)
	if n.eps == nil {
		n.eps = make([][]int, len(n.delta))
	}
	lst := n.eps[q]
	i := sort.SearchInts(lst, p)
	if i < len(lst) && lst[i] == p {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = p
	n.eps[q] = lst
}

// HasEpsilon reports whether any ε-transitions remain.
func (n *NFA) HasEpsilon() bool {
	for _, e := range n.eps {
		if len(e) > 0 {
			return true
		}
	}
	return false
}

// Successors returns the successor list of q on a. The returned slice must
// not be modified.
func (n *NFA) Successors(q int, a Symbol) []int {
	return n.delta[q][a]
}

// NumTransitions returns the total number of (q, a, p) transitions.
func (n *NFA) NumTransitions() int {
	c := 0
	for _, row := range n.delta {
		for _, lst := range row {
			c += len(lst)
		}
	}
	return c
}

// EachTransition calls f for every transition in (q, a, p) order.
func (n *NFA) EachTransition(f func(q int, a Symbol, p int)) {
	for q, row := range n.delta {
		for a, lst := range row {
			for _, p := range lst {
				f(q, a, p)
			}
		}
	}
}

// StepSet writes to dst the set of states reachable from src in one step on
// symbol a. dst and src may not alias.
func (n *NFA) StepSet(dst, src *bitset.Set, a Symbol) {
	dst.Clear()
	src.ForEach(func(q int) {
		for _, p := range n.delta[q][a] {
			dst.Add(p)
		}
	})
}

// Accepts reports whether the automaton accepts the word. The automaton must
// be ε-free.
func (n *NFA) Accepts(w Word) bool {
	cur := bitset.New(n.NumStates())
	cur.Add(n.start)
	next := bitset.New(n.NumStates())
	for _, a := range w {
		n.StepSet(next, cur, a)
		cur, next = next, cur
		if cur.Empty() {
			return false
		}
	}
	ok := false
	cur.ForEach(func(q int) {
		if n.final[q] {
			ok = true
		}
	})
	return ok
}

// AcceptingRuns returns all accepting state sequences (each of length
// |w|+1, starting at the start state) for w. Exponential in the worst case;
// intended for tests and the ambiguity diagnostics.
func (n *NFA) AcceptingRuns(w Word) [][]int {
	var runs [][]int
	cur := []int{n.start}
	var rec func(i int)
	rec = func(i int) {
		if i == len(w) {
			if n.final[cur[len(cur)-1]] {
				run := make([]int, len(cur))
				copy(run, cur)
				runs = append(runs, run)
			}
			return
		}
		for _, p := range n.delta[cur[len(cur)-1]][w[i]] {
			cur = append(cur, p)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return runs
}

// Clone returns a deep copy.
func (n *NFA) Clone() *NFA {
	m := New(n.alpha, n.NumStates())
	m.start = n.start
	copy(m.final, n.final)
	n.EachTransition(func(q int, a Symbol, p int) { m.AddTransition(q, a, p) })
	for q, es := range n.eps {
		for _, p := range es {
			m.AddEpsilon(q, p)
		}
	}
	return m
}

// Reachable returns the set of states reachable from the start state via
// any transitions (including ε). It allocates the set and one stack.
func (n *NFA) Reachable() *bitset.Set {
	seen := bitset.New(n.NumStates())
	stack := make([]int, 1, n.NumStates()) // a state is pushed at most once
	stack[0] = n.start
	seen.Add(n.start)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lst := range n.delta[q] {
			for _, p := range lst {
				if !seen.Has(p) {
					seen.Add(p)
					stack = append(stack, p)
				}
			}
		}
		if n.eps != nil {
			for _, p := range n.eps[q] {
				if !seen.Has(p) {
					seen.Add(p)
					stack = append(stack, p)
				}
			}
		}
	}
	return seen
}

// CoReachable returns the set of states from which some final state is
// reachable. It allocates the set, one predecessor table and one stack.
func (n *NFA) CoReachable() *bitset.Set {
	pred := n.transpose(false)
	seen := bitset.New(n.NumStates())
	stack := make([]int, 0, n.NumStates())
	for q, f := range n.final {
		if f {
			seen.Add(q)
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[pred[q]:pred[q+1]] {
			if !seen.Has(p) {
				seen.Add(p)
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// transpose returns the reversed transition relation as one table in
// compressed-row form: keys 0..K-1 head the table with their list's
// start, tab[K] is the end, and the predecessor list of key k is
// tab[tab[k]:tab[k+1]]. With bySymbol the key of (p, a) is p·σ + a and
// the list holds the q with p ∈ δ(q, a); without it the key is p and
// the list holds every q with a labelled or ε-edge into p. With
// bySymbol a list holds distinct q in ascending order. Without it a list
// holds the labelled predecessors in ascending q order, then the ε
// predecessors in ascending q order, one entry per edge into p: it may
// go down where the ε entries start, and a q may repeat.
func (n *NFA) transpose(bySymbol bool) []int {
	m, sigma := n.NumStates(), n.alpha.Size()
	keys, stride, sym := m, 1, 0
	if bySymbol {
		keys, stride, sym = m*sigma, sigma, 1
	}
	size := keys + 1 + n.NumTransitions()
	if !bySymbol {
		for _, es := range n.eps {
			size += len(es)
		}
	}
	tab := make([]int, size)
	for _, row := range n.delta {
		for a, lst := range row {
			for _, p := range lst {
				tab[p*stride+a*sym+1]++
			}
		}
	}
	if !bySymbol {
		for _, es := range n.eps {
			for _, p := range es {
				tab[p+1]++
			}
		}
	}
	// tab[k] becomes the start of key k's list, then a write cursor that
	// ends at the start of key k+1; the final shift restores the starts.
	tab[0] = keys + 1
	for k := 1; k <= keys; k++ {
		tab[k] += tab[k-1]
	}
	for q, row := range n.delta {
		for a, lst := range row {
			for _, p := range lst {
				k := p*stride + a*sym
				tab[tab[k]] = q
				tab[k]++
			}
		}
	}
	if !bySymbol {
		for q, es := range n.eps {
			for _, p := range es {
				tab[tab[p]] = q
				tab[p]++
			}
		}
	}
	for k := keys - 1; k > 0; k-- {
		tab[k] = tab[k-1]
	}
	tab[0] = keys + 1
	return tab
}

// String renders a compact description for debugging.
func (n *NFA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NFA{states=%d start=%d final=%v trans=%d}", n.NumStates(), n.start, n.Finals(), n.NumTransitions())
	return sb.String()
}
