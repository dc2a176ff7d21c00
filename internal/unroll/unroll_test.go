package unroll

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automata"
)

func language(n *automata.NFA, length int) []string {
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
	sort.Strings(out)
	return out
}

// dagLanguage enumerates all label strings of s_start → s_final paths
// (dropping the trailing FinalSymbol edge).
func dagLanguage(d *DAG) []string {
	var out []string
	var walk func(layer, state int, suffix []automata.Symbol)
	walk = func(layer, state int, suffix []automata.Symbol) {
		if layer == 0 {
			w := make(automata.Word, len(suffix))
			for i := range suffix {
				w[i] = suffix[len(suffix)-1-i]
			}
			out = append(out, d.Src.Alphabet().FormatWord(w))
			return
		}
		for _, e := range d.Preds(layer, state) {
			next := make([]automata.Symbol, len(suffix)+1)
			copy(next, suffix)
			next[len(suffix)] = e.Symbol
			if e.FromState == -1 {
				walk(0, -1, next)
			} else {
				walk(layer-1, e.FromState, next)
			}
		}
	}
	for _, e := range d.FinalPreds() {
		if e.FromState == -1 {
			out = append(out, "")
		} else {
			walk(d.N, e.FromState, nil)
		}
	}
	sort.Strings(out)
	return out
}

func TestBuildPaperExample(t *testing.T) {
	n, length := automata.PaperExample()
	d, err := Build(n, length, Options{PruneBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 keeps exactly 6 named vertices: (q0,0)=s_start, (q1,1),
	// (q2,1), (q3,2), (q4,2), (qF,3); our layers 1..3 hold 5 of them.
	if got := d.NumAlive(); got != 5 {
		t.Fatalf("alive vertices = %d, want 5", got)
	}
	want := []string{"aaa", "aab", "bba", "bbb"}
	got := dagLanguage(d)
	if len(got) != len(want) {
		t.Fatalf("dag language = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dag language = %v, want %v", got, want)
		}
	}
}

func TestDagPathsEqualLanguageStringsForUFA(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.4)
		for _, prune := range []bool{false, true} {
			for length := 0; length <= 5; length++ {
				d, err := Build(n, length, Options{PruneBackward: prune})
				if err != nil {
					t.Fatal(err)
				}
				want := language(n, length)
				got := dagLanguage(d)
				if len(got) != len(want) {
					t.Fatalf("trial %d length %d prune=%v: %v vs %v", trial, length, prune, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d length %d prune=%v: %v vs %v", trial, length, prune, got, want)
					}
				}
			}
		}
	}
}

func TestDagDistinctStringsForAmbiguousNFA(t *testing.T) {
	// For an ambiguous NFA the DAG has more paths than strings, but the set
	// of distinct path labels must still equal L_n.
	n := automata.AmbiguityGap(4)
	d, err := Build(n, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels := dagLanguage(d)
	distinct := map[string]bool{}
	for _, s := range labels {
		distinct[s] = true
	}
	want := language(n, 4)
	if len(distinct) != len(want) {
		t.Fatalf("distinct labels %d, language %d", len(distinct), len(want))
	}
	for _, s := range want {
		if !distinct[s] {
			t.Fatalf("missing word %q", s)
		}
	}
	if len(labels) <= len(want) {
		t.Fatal("ambiguous NFA should have more paths than strings")
	}
}

func TestEmptyAndZeroLength(t *testing.T) {
	alpha := automata.Binary()
	n := automata.Chain(alpha, automata.Word{0, 1})
	d, err := Build(n, 3, Options{PruneBackward: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Error("length-3 slice of {01} should be empty")
	}

	d0, err := Build(n, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Empty() {
		t.Error("ε not in L; DAG at n=0 should be empty")
	}

	accEps := automata.New(alpha, 1)
	accEps.SetFinal(0, true)
	dEps, err := Build(accEps, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dEps.Empty() {
		t.Error("ε-accepting automaton should have non-empty DAG at n=0")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	n := automata.New(automata.Binary(), 2)
	n.AddEpsilon(0, 1)
	if _, err := Build(n, 2, Options{}); err == nil {
		t.Error("ε-automaton should be rejected")
	}
	ok := automata.Chain(automata.Binary(), automata.Word{0})
	if _, err := Build(ok, -1, Options{}); err == nil {
		t.Error("negative depth should be rejected")
	}
}

func TestAliveMonotoneUnderPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		n := automata.Random(rng, automata.Binary(), 2+rng.Intn(6), 0.3, 0.3)
		length := 1 + rng.Intn(5)
		full, err := Build(n, length, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := Build(n, length, Options{PruneBackward: true})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.NumAlive() > full.NumAlive() {
			t.Fatal("backward pruning must not add vertices")
		}
		// Pruning must preserve the path-label language.
		g1, g2 := dagLanguage(full), dagLanguage(pruned)
		set1 := map[string]bool{}
		for _, s := range g1 {
			set1[s] = true
		}
		set2 := map[string]bool{}
		for _, s := range g2 {
			set2[s] = true
		}
		if len(set1) != len(set2) {
			t.Fatalf("pruning changed distinct labels: %d vs %d", len(set1), len(set2))
		}
		for s := range set1 {
			if !set2[s] {
				t.Fatalf("pruning lost word %q", s)
			}
		}
	}
}
