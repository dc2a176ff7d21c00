package automata

import (
	"math/rand"
	"testing"
)

// randPerm returns a permutation of [0, m) that is not the identity (for
// m > 1), so relabelling tests actually move states.
func randPerm(rng *rand.Rand, m int) []int {
	perm := rng.Perm(m)
	if m > 1 {
		id := true
		for i, v := range perm {
			if i != v {
				id = false
				break
			}
		}
		if id {
			perm[0], perm[1] = perm[1], perm[0]
		}
	}
	return perm
}

func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(8), 0.4, 0.5)
		perm := randPerm(rng, n.NumStates())
		r := Relabel(n, perm)
		if r.NumStates() != n.NumStates() || r.NumTransitions() != n.NumTransitions() {
			t.Fatalf("trial %d: relabel changed size: %d/%d states, %d/%d transitions",
				trial, r.NumStates(), n.NumStates(), r.NumTransitions(), n.NumTransitions())
		}
		// Relabelling is language-preserving: spot-check short words.
		for i := 0; i < 50; i++ {
			w := make(Word, rng.Intn(6))
			for j := range w {
				w[j] = rng.Intn(2)
			}
			if n.Accepts(w) != r.Accepts(w) {
				t.Fatalf("trial %d: relabel changed language on %v", trial, w)
			}
		}
	}
}

func TestNormalizeUnifiesRelabelledDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		d := RandomDFA(rng, Binary(), 2+rng.Intn(12), 0.5)
		perm := randPerm(rng, d.NumStates())
		a, b := Normalize(d), Normalize(Relabel(d, perm))
		if !Equal(a, b) || MarshalString(a) != MarshalString(b) {
			t.Fatalf("trial %d: relabelled DFA changed the normal form", trial)
		}
	}
}

func TestNormalizeSeparatesDistinctAutomata(t *testing.T) {
	// A deterministic pair with provably different languages pins it
	// exactly.
	a := Chain(Binary(), Binary().WordOf("0", "1", "0"))
	b := Chain(Binary(), Binary().WordOf("0", "1", "1"))
	if Equal(Normalize(a), Normalize(b)) {
		t.Fatal("distinct chain DFAs share a normal form")
	}
	// So does a structurally distinct pair with equal local pictures.
	six, threes := hubCyclePair()
	if Equal(Normalize(six), Normalize(threes)) {
		t.Fatal("non-isomorphic hub-and-cycle pair shares a normal form")
	}
}

// hubCyclePair builds two non-isomorphic nondeterministic automata whose
// states all have the same local in/out picture: a hub state fanning into
// a single 6-cycle vs. into two 3-cycles (one cycle predecessor, one cycle
// successor, one hub in-edge, all with equal labels), so no
// relabelling-invariant refinement tells them apart.
func hubCyclePair() (*NFA, *NFA) {
	alpha := Binary()
	build := func(cycles [][]int) *NFA {
		n := New(alpha, 7)
		n.SetStart(0)
		for q := 1; q < 7; q++ {
			n.SetFinal(q, true)
			n.AddTransition(0, 0, q)
		}
		for _, cyc := range cycles {
			for i, q := range cyc {
				n.AddTransition(q, 0, cyc[(i+1)%len(cyc)])
			}
		}
		return n
	}
	six := build([][]int{{1, 2, 3, 4, 5, 6}})
	threes := build([][]int{{1, 2, 3}, {4, 5, 6}})
	return six, threes
}

func TestNondeterministicRelabellingsDoNotUnify(t *testing.T) {
	// Deliberate asymmetry with the DFA case: relabelling a
	// nondeterministic automaton permutes sorted successor lists and with
	// them the observable enumeration block order, so the normal form
	// keeps relabelled nondeterministic inputs separate (see the
	// canonical.go file comment).
	a, _ := hubCyclePair()
	perm := make([]int, 7)
	for i := range perm {
		perm[i] = i
	}
	perm[1], perm[2] = 2, 1
	r := Relabel(a, perm)
	if Equal(Trim(r), Trim(a)) {
		t.Skip("relabelling happened to fix the structure")
	}
	if Equal(Normalize(r), Normalize(a)) {
		t.Fatal("relabelled nondeterministic automaton unified under Normalize")
	}
}

func TestKeysOnDegenerateAutomata(t *testing.T) {
	// Empty language: everything normalizes to the one-state automaton
	// with no final state.
	empty := New(Binary(), 3)
	empty.SetStart(0)
	empty.AddTransition(0, 0, 1)
	other := New(Binary(), 1)
	other.SetStart(0)
	if !Equal(Normalize(empty), Normalize(other)) {
		t.Fatal("two empty-language automata have different normal forms")
	}
	// ε-transitions: the normal form is ε-free, so an ε-automaton
	// normalizes like its RemoveEpsilon image.
	eps := New(Binary(), 2)
	eps.SetStart(0)
	eps.SetFinal(1, true)
	eps.AddEpsilon(0, 1)
	eps.AddTransition(1, 0, 1)
	if !Equal(Normalize(eps), Normalize(RemoveEpsilon(eps))) {
		t.Fatal("ε-automaton normalizes differently from its ε-free image")
	}
}

// FuzzCanonicalKey drives the cache's key — the normal form — with
// generated automata: Normalize must build in one copy exactly what Trim
// and Canonicalize build in two, return a normal form uncopied, and map
// every relabelling of a DFA to one byte-identical normal form.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))
	f.Add(int64(2), uint8(6), uint8(1))
	f.Add(int64(3), uint8(9), uint8(2))
	f.Add(int64(4), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, mode uint8) {
		states := 2 + int(m)%10
		rng := rand.New(rand.NewSource(seed))
		var n *NFA
		switch mode % 3 {
		case 0:
			n = RandomDFA(rng, Binary(), states, 0.5)
		case 1:
			n = Random(rng, Binary(), states, 0.4, 0.5)
		default:
			n = RandomLayered(rng, Binary(), 2+states/3, 3, 2)
		}
		perm := randPerm(rng, n.NumStates())
		r := Relabel(n, perm)
		// Normalize builds in one copy what Trim and Canonicalize build in
		// two, byte for byte, and returns its own output unchanged (an
		// empty language normalizes to a fresh one-state automaton).
		for _, x := range []*NFA{n, r} {
			want := Trim(x)
			if IsDeterministic(want) {
				want = Canonicalize(want)
			}
			norm := Normalize(x)
			if MarshalString(norm) != MarshalString(want) || !Equal(norm, want) {
				t.Fatalf("Normalize differs from Canonicalize(Trim(n)) (seed=%d)", seed)
			}
			if Normalize(norm) != norm && len(norm.Finals()) > 0 {
				t.Fatalf("Normalize copied a normal form (seed=%d)", seed)
			}
		}
		if IsDeterministic(n) && MarshalString(Normalize(r)) != MarshalString(Normalize(n)) {
			t.Fatalf("relabelled DFA did not unify (seed=%d)", seed)
		}
	})
}

func TestCanonicalizeConvergesRelabelledDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		d := Trim(RandomDFA(rng, Binary(), 2+rng.Intn(12), 0.5))
		perm := randPerm(rng, d.NumStates())
		a, b := Canonicalize(d), Canonicalize(Relabel(d, perm))
		if !Equal(a, b) {
			t.Fatalf("trial %d: canonical forms of relabellings differ", trial)
		}
		// Idempotent, and the fixed point is returned uncopied — the cheap
		// warm-path property KeyFor relies on.
		if Canonicalize(a) != a {
			t.Fatalf("trial %d: Canonicalize of a canonical form should return it unchanged", trial)
		}
	}
}

func TestNormalizeAndStructHash(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		d := RandomDFA(rng, Binary(), 2+rng.Intn(12), 0.5)
		perm := randPerm(rng, d.NumStates())
		a, b := Normalize(d), Normalize(Relabel(d, perm))
		if !Equal(a, b) {
			t.Fatalf("trial %d: normal forms of DFA relabellings differ", trial)
		}
		if StructHash(a) != StructHash(b) {
			t.Fatalf("trial %d: StructHash differs on equal normal forms", trial)
		}
	}
	// StructHash is structure-exact: moving one final bit changes it.
	d := Trim(RandomDFA(rand.New(rand.NewSource(23)), Binary(), 8, 0.5))
	mut := Relabel(d, identityPerm(d.NumStates()))
	flip := 0
	for q := 0; q < mut.NumStates(); q++ {
		if !mut.IsFinal(q) {
			flip = q
			break
		}
	}
	mut.SetFinal(flip, true)
	if StructHash(d) == StructHash(mut) {
		t.Fatal("StructHash should change when a final marking changes")
	}
	// ε-automata normalize through ε-elimination, like the keys do.
	e := New(Binary(), 2)
	e.SetStart(0)
	e.AddEpsilon(0, 1)
	e.AddTransition(1, 0, 1)
	e.SetFinal(1, true)
	if ne := Normalize(e); ne.HasEpsilon() {
		t.Fatal("Normalize left ε-transitions behind")
	}
}

func identityPerm(m int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	return perm
}
