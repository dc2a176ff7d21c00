package bdd

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/sample"
)

func countBySweep(d *Diagram) *big.Int {
	total := big.NewInt(0)
	assign := make([]bool, d.NumVars)
	var rec func(i int)
	rec = func(i int) {
		if i == d.NumVars {
			if d.Eval(assign) {
				total.Add(total, big.NewInt(1))
			}
			return
		}
		assign[i] = false
		rec(i + 1)
		assign[i] = true
		rec(i + 1)
	}
	rec(0)
	return total
}

func TestSinksAndConstantFunctions(t *testing.T) {
	d := New(3)
	if d.Eval([]bool{true, false, true}) {
		t.Fatal("default root Sink0 must be constant false")
	}
	d.SetRoot(Sink1)
	if !d.Eval([]bool{false, false, false}) {
		t.Fatal("Sink1 root must be constant true")
	}
	n := d.NFA()
	got, err := exact.CountNFA(n, 3, 0)
	if err != nil || got.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("constant-true count = %v, want 8", got)
	}
}

func TestSingleVariable(t *testing.T) {
	d := New(2)
	// f = x1 (second variable).
	d.SetRoot(d.AddDecision(1, Sink0, Sink1))
	if !d.Eval([]bool{false, true}) || d.Eval([]bool{true, false}) {
		t.Fatal("Eval wrong for f = x1")
	}
	got, err := exact.CountNFA(d.NFA(), 2, 0)
	if err != nil || got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count = %v, want 2", got)
	}
}

func TestParityDiagram(t *testing.T) {
	for _, nv := range []int{1, 2, 5, 8} {
		d := Parity(nv)
		if err := d.ValidateOrdered(); err != nil {
			t.Fatal(err)
		}
		if !d.Deterministic() {
			t.Fatal("parity OBDD must be deterministic")
		}
		n := d.NFA()
		if !automata.IsUnambiguous(n) {
			t.Fatal("OBDD automaton must be unambiguous (Corollary 9)")
		}
		got, err := exact.CountNFA(n, nv, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := big.NewInt(1 << uint(nv-1)) // half the assignments are odd
		if got.Cmp(want) != 0 {
			t.Fatalf("parity(%d) count = %v, want %v", nv, got, want)
		}
	}
}

func TestBuildAgainstSweep(t *testing.T) {
	funcs := []struct {
		name string
		n    int
		f    func([]bool) bool
	}{
		{"majority5", 5, func(a []bool) bool {
			c := 0
			for _, b := range a {
				if b {
					c++
				}
			}
			return c >= 3
		}},
		{"and4", 4, func(a []bool) bool { return a[0] && a[1] && a[2] && a[3] }},
		{"xor-chain", 6, func(a []bool) bool {
			x := false
			for _, b := range a {
				x = x != b
			}
			return x
		}},
		{"x0_or_x3", 4, func(a []bool) bool { return a[0] || a[3] }},
	}
	for _, tc := range funcs {
		d := Build(tc.n, tc.f)
		if err := d.ValidateOrdered(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Eval agrees with the function everywhere.
		assign := make([]bool, tc.n)
		var rec func(i int) bool
		rec = func(i int) bool {
			if i == tc.n {
				return d.Eval(assign) == tc.f(assign)
			}
			assign[i] = false
			if !rec(i + 1) {
				return false
			}
			assign[i] = true
			return rec(i + 1)
		}
		if !rec(0) {
			t.Fatalf("%s: Eval disagrees with source function", tc.name)
		}
		// Automaton count agrees with sweep.
		got, err := exact.CountNFA(d.NFA(), tc.n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(countBySweep(d)) != 0 {
			t.Fatalf("%s: NFA count %v, sweep %v", tc.name, got, countBySweep(d))
		}
	}
}

func TestOBDDSamplingAndEnumeration(t *testing.T) {
	d := Build(6, func(a []bool) bool { // at least four true
		c := 0
		for _, b := range a {
			if b {
				c++
			}
		}
		return c >= 4
	})
	n := d.NFA()
	if !automata.IsUnambiguous(n) {
		t.Fatal("OBDD automaton must be unambiguous")
	}
	s, err := sample.NewUFASampler(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	// C(6,4)+C(6,5)+C(6,6) = 15+6+1 = 22.
	if s.TotalRange().Cmp(big.NewInt(22)) != 0 {
		t.Fatalf("count = %v, want 22", s.TotalRange())
	}
	rng := rand.New(rand.NewSource(71))
	seen := map[string]bool{}
	for i := 0; i < 3000; i++ {
		w, err := s.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		assign := make([]bool, 6)
		for i, b := range w {
			if b == 1 {
				ones++
				assign[i] = true
			}
		}
		if ones < 4 || !d.Eval(assign) {
			t.Fatalf("sampled non-witness %v", w)
		}
		seen[automata.Binary().FormatWord(w)] = true
	}
	if len(seen) != 22 {
		t.Fatalf("coverage %d of 22", len(seen))
	}
}

func TestNOBDDAmbiguousButConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ambiguousSeen := 0
	for trial := 0; trial < 12; trial++ {
		d := RandomNOBDD(rng, 5, 3, 3)
		if err := d.ValidateOrdered(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !d.Consistent() {
			t.Fatalf("trial %d: duplication broke consistency", trial)
		}
		n := d.NFA()
		got, err := exact.CountNFA(n, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(countBySweep(d)) != 0 {
			t.Fatalf("trial %d: NFA count %v, sweep %v", trial, got, countBySweep(d))
		}
		if !automata.IsUnambiguous(n) {
			ambiguousSeen++
		}
	}
	if ambiguousSeen == 0 {
		t.Fatal("duplication never produced ambiguity; generator is broken")
	}
}

func TestRandomOBDDMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 15; trial++ {
		d := RandomOBDD(rng, 2+rng.Intn(5), 1+rng.Intn(3))
		if err := d.ValidateOrdered(); err != nil {
			t.Fatal(err)
		}
		got, err := exact.CountNFA(d.NFA(), d.NumVars, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(countBySweep(d)) != 0 {
			t.Fatalf("trial %d: %v vs %v", trial, got, countBySweep(d))
		}
	}
}

func TestValidateOrderedCatchesViolations(t *testing.T) {
	d := New(3)
	inner := d.AddDecision(1, Sink0, Sink1)
	outer := d.AddDecision(1, inner, Sink1) // repeats x1 on the lo path
	d.SetRoot(outer)
	if err := d.ValidateOrdered(); err == nil {
		t.Fatal("order violation not caught")
	}
	ok := New(3)
	a := ok.AddDecision(2, Sink0, Sink1)
	b := ok.AddDecision(0, a, Sink1)
	ok.SetRoot(b)
	if err := ok.ValidateOrdered(); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadConstruction(t *testing.T) {
	d := New(2)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("bad var", func() { d.AddDecision(5, Sink0, Sink1) })
	mustPanic("bad child", func() { d.AddDecision(0, 99, Sink1) })
	mustPanic("empty choice", func() { d.AddChoice() })
	mustPanic("bad root", func() { d.SetRoot(42) })
	mustPanic("bad eval len", func() { d.Eval([]bool{true}) })
	mustPanic("negative vars", func() { New(-1) })
}

func TestZeroVariables(t *testing.T) {
	d := New(0)
	d.SetRoot(Sink1)
	got, err := exact.CountNFA(d.NFA(), 0, 0)
	if err != nil || got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("0-var constant true: %v", got)
	}
}
