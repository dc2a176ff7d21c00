package graphdb

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/oracle"
)

func diamondGraph(t *testing.T) *Graph {
	t.Helper()
	labels := automata.NewAlphabet("a", "b")
	g := NewGraph(4, labels)
	// 0 -a-> 1 -b-> 3 ; 0 -a-> 2 -b-> 3 ; 3 -a-> 0 (cycle back)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 1, 3)
	g.AddEdge(0, 0, 2)
	g.AddEdge(2, 1, 3)
	g.AddEdge(3, 0, 0)
	return g
}

func TestProductCountsMatchBruteForce(t *testing.T) {
	g := diamondGraph(t)
	q, err := NewRPQ("(ab)+a?", g.Labels())
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n <= 6; n++ {
		for u := 0; u < 4; u++ {
			for v := 0; v < 4; v++ {
				prod, err := BuildProduct(g, q, u, v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exact.CountNFA(prod.N, n, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := int64(len(AllPaths(g, q, u, v, n)))
				if got.Cmp(big.NewInt(want)) != 0 {
					t.Fatalf("count(%d,%d,n=%d) = %v, want %d", u, v, n, got, want)
				}
			}
		}
	}
}

func TestProductRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	labels := automata.NewAlphabet("a", "b", "c")
	for trial := 0; trial < 10; trial++ {
		g := NewGraph(3+rng.Intn(3), labels)
		edges := 4 + rng.Intn(8)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(g.NumNodes()), rng.Intn(3), rng.Intn(g.NumNodes()))
		}
		q, err := NewRPQ("(a|b)*c?(a|b)*", labels)
		if err != nil {
			t.Fatal(err)
		}
		u, v := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
		n := 1 + rng.Intn(4)
		prod, err := BuildProduct(g, q, u, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exact.CountNFA(prod.N, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(AllPaths(g, q, u, v, n)))
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("trial %d: count = %v, want %d", trial, got, want)
		}
	}
}

func TestWordToPathRoundTrip(t *testing.T) {
	g := diamondGraph(t)
	q, err := NewRPQ("ab", g.Labels())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := BuildProduct(g, q, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	words := oracle.Strings(prod.N, 2)
	if len(words) != 2 {
		t.Fatalf("expected 2 paths, got %v", words)
	}
	for _, ws := range words {
		// Parse back the edge word ("e0e1" style names are single symbols
		// internally; oracle.Strings formats with names, so re-derive).
		_ = ws
	}
	// Validate via enumeration of the automaton's words directly.
	var found int
	var w automata.Word
	var rec func(i int)
	rec = func(i int) {
		if i == 2 {
			if prod.N.Accepts(w) {
				p := prod.WordToPath(w)
				word, ok := g.ValidPath(p, 0, 3)
				if !ok {
					t.Fatalf("invalid path %v", p)
				}
				if g.Labels().FormatWord(word) != "ab" {
					t.Fatalf("path word = %q", g.Labels().FormatWord(word))
				}
				found++
			}
			return
		}
		for s := 0; s < prod.Alpha.Size(); s++ {
			w = append(w, s)
			rec(i + 1)
			w = w[:len(w)-1]
		}
	}
	rec(0)
	if found != 2 {
		t.Fatalf("found %d valid paths, want 2", found)
	}
}

func TestValidPathRejectsBrokenPaths(t *testing.T) {
	g := diamondGraph(t)
	if _, ok := g.ValidPath(Path{0, 3}, 0, 3); ok {
		t.Fatal("disconnected edge sequence accepted")
	}
	if _, ok := g.ValidPath(Path{0, 1}, 0, 0); ok {
		t.Fatal("wrong endpoint accepted")
	}
	if _, ok := g.ValidPath(Path{99}, 0, 3); ok {
		t.Fatal("nonexistent edge accepted")
	}
	if w, ok := g.ValidPath(Path{0, 1}, 0, 3); !ok || g.Labels().FormatWord(w) != "ab" {
		t.Fatal("genuine path rejected")
	}
}

func TestFormatPath(t *testing.T) {
	g := diamondGraph(t)
	s := g.FormatPath(Path{0, 1})
	if s != "0 -a-> 1 -b-> 3" {
		t.Fatalf("FormatPath = %q", s)
	}
	if g.FormatPath(nil) != "(empty path)" {
		t.Fatal("empty path formatting")
	}
}

func TestParseGraph(t *testing.T) {
	text := `
# a graph
nodes: 3
labels: x y
0 x 1
1 y 2
2 x 0
`
	g, err := ParseGraph(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	q, err := NewRPQ("(xyx)*", g.Labels())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := BuildProduct(g, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exact.CountNFA(prod.N, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("cycle count = %v, want 1", got)
	}
}

func TestParseGraphErrors(t *testing.T) {
	cases := []string{
		"labels: a\n0 a 1\n",           // missing nodes
		"nodes: 2\n0 a 1\n",            // missing labels
		"nodes: 2\nlabels: a\n0 b 1\n", // unknown label
		"nodes: 2\nlabels: a\n0 a 5\n", // node out of range
		"nodes: 2\nlabels: a\n0 a\n",   // arity
		"nodes: 0\nlabels: a\n",        // zero nodes
		"nodes: 2\nlabels: a\nx a 1\n", // bad node id
	}
	for _, c := range cases {
		if _, err := ParseGraph(strings.NewReader(c)); err == nil {
			t.Errorf("ParseGraph(%q) should fail", c)
		}
	}
}

func TestBuildProductBadEndpoints(t *testing.T) {
	g := diamondGraph(t)
	q, _ := NewRPQ("a", g.Labels())
	if _, err := BuildProduct(g, q, -1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if _, err := BuildProduct(g, q, 0, 9); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := NewGraph(2, automata.NewAlphabet("a"))
	q, err := NewRPQ("a*", g.Labels())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := BuildProduct(g, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exact.CountNFA(prod.N, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("empty path count = %v, want 1 (the ε-path)", got)
	}
}
