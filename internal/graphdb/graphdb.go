// Package graphdb implements the graph-database application of §4.2: a
// labelled graph, regular path queries (RPQs), and the reduction of
//
//	EVAL-RPQ = {((Q, 0^n, G, u, v), π) : π ∈ ⟦Q⟧_n(G, u, v)}
//
// to MEM-NFA via the product automaton G × A_R. A path of length n from u
// to v satisfying the RPQ corresponds to exactly one string over the edge
// alphabet of the product (paths are determined by their edge sequences),
// so enumeration, counting (FPRAS, Corollary 8) and uniform sampling
// (PLVUG) of paths all reduce to the automaton problems solved by the core
// packages.
package graphdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/automata"
	"repro/internal/regex"
)

// Graph is a labelled directed multigraph: nodes are dense integers,
// edge labels are strings.
type Graph struct {
	numNodes int
	labels   *automata.Alphabet
	// edges[u] lists outgoing edges of u.
	edges [][]Edge
	// edgeList is the global edge arena; Edge ids index it.
	edgeList []edgeRec
}

// Edge is an outgoing edge reference.
type Edge struct {
	ID    int // global edge id
	Label automata.Symbol
	To    int
}

type edgeRec struct {
	from, to int
	label    automata.Symbol
}

// NewGraph creates a graph with n nodes and the given label alphabet.
func NewGraph(n int, labels *automata.Alphabet) *Graph {
	return &Graph{numNodes: n, labels: labels, edges: make([][]Edge, n)}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edgeList) }

// Labels returns the label alphabet.
func (g *Graph) Labels() *automata.Alphabet { return g.labels }

// AddEdge inserts edge u --label--> v and returns its id.
func (g *Graph) AddEdge(u int, label automata.Symbol, v int) int {
	if u < 0 || u >= g.numNodes || v < 0 || v >= g.numNodes {
		panic(fmt.Sprintf("graphdb: edge (%d,%d) out of range", u, v))
	}
	if label < 0 || label >= g.labels.Size() {
		panic(fmt.Sprintf("graphdb: label %d out of range", label))
	}
	id := len(g.edgeList)
	g.edgeList = append(g.edgeList, edgeRec{from: u, to: v, label: label})
	g.edges[u] = append(g.edges[u], Edge{ID: id, Label: label, To: v})
	return id
}

// EdgeByID resolves an edge id to (from, label, to).
func (g *Graph) EdgeByID(id int) (from int, label automata.Symbol, to int) {
	e := g.edgeList[id]
	return e.from, e.label, e.to
}

// Path is a sequence of edge ids describing a path in the graph.
type Path []int

// FormatPath renders a path as v0 -l1-> v1 -l2-> ... for display.
func (g *Graph) FormatPath(p Path) string {
	if len(p) == 0 {
		return "(empty path)"
	}
	var sb strings.Builder
	from, label, to := g.EdgeByID(p[0])
	fmt.Fprintf(&sb, "%d -%s-> %d", from, g.labels.Name(label), to)
	for _, id := range p[1:] {
		_, label, to = g.EdgeByID(id)
		fmt.Fprintf(&sb, " -%s-> %d", g.labels.Name(label), to)
	}
	return sb.String()
}

// ValidPath checks that p is a contiguous path from u to v whose labels
// spell a word; it returns that word.
func (g *Graph) ValidPath(p Path, u, v int) (automata.Word, bool) {
	cur := u
	w := make(automata.Word, 0, len(p))
	for _, id := range p {
		if id < 0 || id >= len(g.edgeList) {
			return nil, false
		}
		e := g.edgeList[id]
		if e.from != cur {
			return nil, false
		}
		w = append(w, e.label)
		cur = e.to
	}
	return w, cur == v
}

// RPQ is a regular path query (x, R, y): a regex over the graph's labels.
type RPQ struct {
	Pattern string
	nfa     *automata.NFA
}

// NewRPQ compiles the pattern over the graph label alphabet.
func NewRPQ(pattern string, labels *automata.Alphabet) (*RPQ, error) {
	nfa, err := regex.Compile(pattern, labels)
	if err != nil {
		return nil, err
	}
	return &RPQ{Pattern: pattern, nfa: automata.Trim(nfa)}, nil
}

// Automaton exposes the compiled query automaton.
func (q *RPQ) Automaton() *automata.NFA { return q.nfa }

// Product is the MEM-NFA instance for one ((Q, 0^n, G, u, v)) input: its
// automaton accepts, at length n, exactly the encodings of paths in
// ⟦Q⟧_n(G, u, v). Each product transition is labelled by the graph edge it
// traverses, so distinct strings ↔ distinct paths.
type Product struct {
	G *Graph
	Q *RPQ
	// Alpha is the edge alphabet: one symbol per graph edge, named e<id>.
	Alpha *automata.Alphabet
	// N is the product automaton over Alpha.
	N *automata.NFA
}

// BuildProduct constructs the product automaton for source u and target v.
// Product state (node, query-state) is reachable×labelled: a transition on
// edge e = (x, l, y) exists from (x, q) to (y, q') whenever the query
// automaton steps q --l--> q'.
func BuildProduct(g *Graph, q *RPQ, u, v int) (*Product, error) {
	if u < 0 || u >= g.numNodes || v < 0 || v >= g.numNodes {
		return nil, fmt.Errorf("graphdb: endpoint out of range")
	}
	names := make([]string, g.NumEdges())
	for i := range names {
		names[i] = "e" + itoa(i)
	}
	if len(names) == 0 {
		// A graph with no edges still needs a non-empty alphabet.
		names = []string{"e0"}
	}
	alpha := automata.NewAlphabet(names...)

	qa := q.nfa
	mq := qa.NumStates()
	id := func(node, qs int) int { return node*mq + qs }
	prod := automata.New(alpha, g.numNodes*mq)
	prod.SetStart(id(u, qa.Start()))
	for node := 0; node < g.numNodes; node++ {
		for qs := 0; qs < mq; qs++ {
			if node == v && qa.IsFinal(qs) {
				prod.SetFinal(id(node, qs), true)
			}
			for _, e := range g.edges[node] {
				for _, qs2 := range qa.Successors(qs, e.Label) {
					prod.AddTransition(id(node, qs), e.ID, id(e.To, qs2))
				}
			}
		}
	}
	return &Product{G: g, Q: q, Alpha: alpha, N: automata.Trim(prod)}, nil
}

// WordToPath converts an accepted word of the product automaton back to
// the graph path it encodes.
func (p *Product) WordToPath(w automata.Word) Path {
	out := make(Path, len(w))
	for i, s := range w {
		out[i] = s
	}
	return out
}

func itoa(v int) string {
	return fmt.Sprintf("%d", v)
}

// ParseGraph reads the simple text format:
//
//	nodes: 5
//	labels: a b
//	0 a 1
//	1 b 2
//
// Blank lines and #-comments are ignored.
func ParseGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var g *Graph
	var labels *automata.Alphabet
	nodes := -1
	lineNo := 0
	var pending [][3]string
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "nodes:"):
			if _, err := fmt.Sscanf(line, "nodes: %d", &nodes); err != nil || nodes <= 0 {
				return nil, fmt.Errorf("graphdb: line %d: bad node count", lineNo)
			}
		case strings.HasPrefix(line, "labels:"):
			fields := strings.Fields(strings.TrimPrefix(line, "labels:"))
			if len(fields) == 0 {
				return nil, fmt.Errorf("graphdb: line %d: empty labels", lineNo)
			}
			labels = automata.NewAlphabet(fields...)
		default:
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fmt.Errorf("graphdb: line %d: expected 'from label to'", lineNo)
			}
			pending = append(pending, [3]string{f[0], f[1], f[2]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if nodes < 0 || labels == nil {
		return nil, fmt.Errorf("graphdb: missing nodes: or labels: header")
	}
	g = NewGraph(nodes, labels)
	for _, e := range pending {
		var u, v int
		if _, err := fmt.Sscanf(e[0], "%d", &u); err != nil {
			return nil, fmt.Errorf("graphdb: bad node %q", e[0])
		}
		if _, err := fmt.Sscanf(e[2], "%d", &v); err != nil {
			return nil, fmt.Errorf("graphdb: bad node %q", e[2])
		}
		l, ok := labels.Symbol(e[1])
		if !ok {
			return nil, fmt.Errorf("graphdb: unknown label %q", e[1])
		}
		if u < 0 || u >= nodes || v < 0 || v >= nodes {
			return nil, fmt.Errorf("graphdb: edge (%d,%d) out of range", u, v)
		}
		g.AddEdge(u, l, v)
	}
	return g, nil
}

// AllPaths enumerates every path of length n from u to v satisfying q, by
// brute force — the validation oracle for the product reduction.
func AllPaths(g *Graph, q *RPQ, u, v, n int) []Path {
	var out []Path
	cur := make(Path, 0, n)
	word := make(automata.Word, 0, n)
	var rec func(node, depth int)
	rec = func(node, depth int) {
		if depth == n {
			if node == v && q.nfa.Accepts(word) {
				p := make(Path, n)
				copy(p, cur)
				out = append(out, p)
			}
			return
		}
		for _, e := range g.edges[node] {
			cur = append(cur, e.ID)
			word = append(word, e.Label)
			rec(e.To, depth+1)
			cur = cur[:len(cur)-1]
			word = word[:len(word)-1]
		}
	}
	rec(u, 0)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
