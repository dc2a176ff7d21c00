package automata

import (
	"fmt"
	"math/rand"
	"strings"
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

func TestWLHashInvariantUnderRelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(10), 0.4, 0.5)
		perm := randPerm(rng, n.NumStates())
		if got, want := WLHash(Relabel(n, perm)), WLHash(n); got != want {
			t.Fatalf("trial %d: WLHash not relabel-invariant: %016x vs %016x", trial, got, want)
		}
	}
}

func TestIsoKeyUnifiesRelabelledDFAs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		d := RandomDFA(rng, Binary(), 2+rng.Intn(12), 0.5)
		perm := randPerm(rng, d.NumStates())
		r := Relabel(d, perm)
		if IsoKey(r) != IsoKey(d) {
			t.Fatalf("trial %d: relabelled DFA changed IsoKey", trial)
		}
		if StrongKey(r) != StrongKey(d) {
			t.Fatalf("trial %d: relabelled DFA changed StrongKey", trial)
		}
		if WLHash(r) != WLHash(d) {
			t.Fatalf("trial %d: relabelled DFA changed WLHash", trial)
		}
	}
}

func TestIsoKeySeparatesDistinctDFAs(t *testing.T) {
	// Distinct random DFAs should (overwhelmingly) get distinct keys; a
	// deterministic pair with provably different languages pins it exactly.
	a := Chain(Binary(), Binary().WordOf("0", "1", "0"))
	b := Chain(Binary(), Binary().WordOf("0", "1", "1"))
	if IsoKey(a) == IsoKey(b) {
		t.Fatal("distinct chain DFAs share an IsoKey")
	}
	if StrongKey(a) == StrongKey(b) {
		t.Fatal("distinct chain DFAs share a StrongKey")
	}
}

func TestStrongKeyUnifiesMinimizationEquivalentDFAs(t *testing.T) {
	// An unminimized determinization and its minimal DFA accept the same
	// language, so they must share a StrongKey while their IsoKeys differ
	// (different state counts ⇒ not isomorphic).
	rng := rand.New(rand.NewSource(14))
	found := false
	for trial := 0; trial < 40; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(5), 0.5, 0.5)
		d, ok := Determinize(n, 1<<12)
		if !ok {
			continue
		}
		d = Trim(d)
		min, err := Minimize(d)
		if err != nil {
			t.Fatalf("trial %d: minimize: %v", trial, err)
		}
		if StrongKey(d) != StrongKey(min) {
			t.Fatalf("trial %d: determinization and its minimal DFA have different strong keys", trial)
		}
		if Trim(d).NumStates() != min.NumStates() {
			found = true
			if IsoKey(d) == IsoKey(min) {
				t.Fatalf("trial %d: non-isomorphic DFAs share an IsoKey", trial)
			}
		}
	}
	if !found {
		t.Fatal("no trial produced a non-minimal determinization; generator drifted")
	}
}

// wlCollidingPair builds two non-isomorphic automata that Weisfeiler-Lehman
// refinement provably cannot separate: a nondeterministic hub state fanning
// into a single 6-cycle vs. into two 3-cycles. Every cycle state has the
// same local in/out picture (one cycle predecessor, one cycle successor,
// one hub in-edge, all with equal labels), so refinement stabilizes with
// identical label multisets on both sides — a forced pre-key collision.
func wlCollidingPair() (*NFA, *NFA) {
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

func TestStrongKeySplitsWLCollision(t *testing.T) {
	a, b := wlCollidingPair()
	if WLHash(a) != WLHash(b) {
		t.Fatalf("constructed pair should WL-collide: %016x vs %016x", WLHash(a), WLHash(b))
	}
	if Equal(Trim(a), Trim(b)) {
		t.Fatal("pair is structurally equal; construction is broken")
	}
	if StrongKey(a) == StrongKey(b) {
		t.Fatal("non-isomorphic WL-colliding pair shares a StrongKey")
	}
	if IsoKey(a) == IsoKey(b) {
		t.Fatal("non-isomorphic WL-colliding pair shares an IsoKey")
	}
}

func TestNondeterministicRelabellingsDoNotUnify(t *testing.T) {
	// Deliberate asymmetry with the DFA case: relabelling a
	// nondeterministic automaton permutes sorted successor lists and with
	// them the observable enumeration block order, so the keys must keep
	// relabelled nondeterministic inputs separate (see the canonical.go
	// package comment).
	a, _ := wlCollidingPair()
	perm := make([]int, 7)
	for i := range perm {
		perm[i] = i
	}
	perm[1], perm[2] = 2, 1
	r := Relabel(a, perm)
	if WLHash(r) != WLHash(a) {
		t.Fatal("WLHash must stay relabel-invariant even for nondeterministic automata")
	}
	if Equal(Trim(r), Trim(a)) {
		t.Skip("relabelling happened to fix the structure")
	}
	if IsoKey(r) == IsoKey(a) {
		t.Fatal("relabelled nondeterministic automaton unified under IsoKey")
	}
	if StrongKey(r) == StrongKey(a) {
		t.Fatal("relabelled nondeterministic automaton unified under StrongKey")
	}
}

func TestKeyPrefixesAndRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := RandomDFA(rng, Binary(), 6, 0.5)
	iso, strong := IsoKey(d), StrongKey(d)
	if !strings.HasPrefix(iso, "c1:") || !strings.HasPrefix(strong, "d1:") {
		t.Fatalf("unexpected DFA key prefixes: %q / %q", iso[:3], strong[:3])
	}
	for _, key := range []string{iso, strong} {
		if _, err := UnmarshalString(key[3:]); err != nil {
			t.Fatalf("canonical key payload does not round-trip: %v", err)
		}
	}
	a, _ := wlCollidingPair()
	if !strings.HasPrefix(IsoKey(a), "t1:") || !strings.HasPrefix(StrongKey(a), "x1:") {
		t.Fatalf("unexpected nondet key prefixes: %q / %q", IsoKey(a)[:3], StrongKey(a)[:3])
	}
}

func TestKeysOnDegenerateAutomata(t *testing.T) {
	// Empty language: everything trims to the canonical one-state sink.
	empty := New(Binary(), 3)
	empty.SetStart(0)
	empty.AddTransition(0, 0, 1)
	other := New(Binary(), 1)
	other.SetStart(0)
	if StrongKey(empty) != StrongKey(other) {
		t.Fatal("two empty-language automata have different strong keys")
	}
	// ε-transitions: keys are defined over the ε-eliminated normal form,
	// so an ε-automaton keys identically to its RemoveEpsilon image.
	eps := New(Binary(), 2)
	eps.SetStart(0)
	eps.SetFinal(1, true)
	eps.AddEpsilon(0, 1)
	eps.AddTransition(1, 0, 1)
	if StrongKey(eps) != StrongKey(RemoveEpsilon(eps)) {
		t.Fatal("ε-automaton keys differently from its ε-free normal form")
	}
	if IsoKey(eps) != IsoKey(RemoveEpsilon(eps)) {
		t.Fatal("ε-automaton IsoKey differs from its ε-free normal form")
	}
}

// FuzzCanonicalKey drives the key hierarchy with generated automata: WLHash
// must be relabel-invariant, DFA relabellings must unify under IsoKey and
// StrongKey, IsoKey equality must imply StrongKey equality, and strong-key
// unification must never merge automata with observably different
// languages (checked by bounded equivalence).
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
		if WLHash(r) != WLHash(n) {
			t.Fatalf("WLHash not relabel-invariant (seed=%d)", seed)
		}
		if IsDeterministic(n) {
			if IsoKey(r) != IsoKey(n) || StrongKey(r) != StrongKey(n) {
				t.Fatalf("relabelled DFA did not unify (seed=%d)", seed)
			}
		}
		if IsoKey(n) == IsoKey(r) && StrongKey(n) != StrongKey(r) {
			t.Fatalf("IsoKey equality must imply StrongKey equality (seed=%d)", seed)
		}
		// Strong-key unification is only ever claimed for language-equal
		// automata; cross-check against an independently generated DFA.
		d2 := RandomDFA(rng, Binary(), 2+int(m)%6, 0.5)
		if StrongKey(n) == StrongKey(d2) {
			if eq, err := EquivalentUpTo(n, d2, 8, 1<<12); err == nil && !eq {
				t.Fatalf("strong key unified language-inequivalent automata (seed=%d)", seed)
			}
		}
	})
}

func TestWLCollisionSearchStaysSeparated(t *testing.T) {
	// Sweep a family of random automata: any WL pre-key collision between
	// structurally distinct automata must be split by the strong key unless
	// the two are genuinely minimization-equivalent DFAs.
	rng := rand.New(rand.NewSource(16))
	byWL := map[uint64][]*NFA{}
	for trial := 0; trial < 120; trial++ {
		var n *NFA
		if trial%2 == 0 {
			n = RandomDFA(rng, Binary(), 2+rng.Intn(6), 0.5)
		} else {
			n = Random(rng, Binary(), 2+rng.Intn(6), 0.4, 0.5)
		}
		byWL[WLHash(n)] = append(byWL[WLHash(n)], n)
	}
	a, b := wlCollidingPair()
	byWL[WLHash(a)] = append(byWL[WLHash(a)], a, b)
	for _, bucket := range byWL {
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				x, y := bucket[i], bucket[j]
				if StrongKey(x) != StrongKey(y) {
					continue
				}
				if eq, err := EquivalentUpTo(x, y, 8, 1<<12); err == nil && !eq {
					t.Fatalf("WL bucket unified inequivalent automata:\n%s\nvs\n%s",
						fmt.Sprint(x), fmt.Sprint(y))
				}
			}
		}
	}
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
