package transducer

import (
	"math/big"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/oracle"
)

func fib(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func TestFibonacciTMCounts(t *testing.T) {
	tm := FibonacciTM()
	for n := 0; n <= 10; n++ {
		input := make(automata.Word, n) // 0^n over the unary input alphabet
		m, err := tm.On(input)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := Compile(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exact.CountNFA(nfa, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := fib(n + 2) // no-two-consecutive-1s strings of length n
		if got.Cmp(big.NewInt(want)) != 0 {
			t.Fatalf("n=%d: |M(0^n)| = %v, want Fib(%d) = %d", n, got, n+2, want)
		}
		if n >= 1 && !automata.IsUnambiguous(nfa) {
			t.Fatalf("n=%d: Fibonacci TM should compile to a UFA", n)
		}
	}
}

func TestFibonacciTMOutputsValid(t *testing.T) {
	tm := FibonacciTM()
	input := make(automata.Word, 7)
	m, err := tm.On(input)
	if err != nil {
		t.Fatal(err)
	}
	nfa, err := Compile(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range oracle.Strings(nfa, 7) {
		for i := 0; i+1 < len(s); i++ {
			if s[i] == '1' && s[i+1] == '1' {
				t.Fatalf("output %q has consecutive 1s", s)
			}
		}
	}
}

func TestSubstringGuessTM(t *testing.T) {
	// Input 0110, k=2: substrings of length 2 are 01, 11, 10 → 3 distinct,
	// 3 occurrences (all distinct here). Input 0101, k=2: substrings 01,
	// 10, 01 → 2 distinct, 3 occurrences.
	tm := SubstringGuessTM(2)
	cases := []struct {
		input            string
		distinct, occurs int64
	}{
		{"0110", 3, 3},
		{"0101", 2, 3},
		{"0000", 1, 3},
		{"01", 1, 1},
	}
	for _, c := range cases {
		w := make(automata.Word, len(c.input))
		for i := range c.input {
			w[i] = int(c.input[i] - '0')
		}
		m, err := tm.On(w)
		if err != nil {
			t.Fatal(err)
		}
		nfa, err := Compile(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := exact.CountNFA(nfa, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if distinct.Cmp(big.NewInt(c.distinct)) != 0 {
			t.Errorf("input %s: distinct = %v, want %d", c.input, distinct, c.distinct)
		}
		occurs := automata.CountPaths(nfa, 2)
		if occurs.Cmp(big.NewInt(c.occurs)) != 0 {
			t.Errorf("input %s: occurrences(paths) = %v, want %d", c.input, occurs, c.occurs)
		}
	}
}

func TestSubstringGuessTMIsSpanL(t *testing.T) {
	// The distinct-substring count through the SpanL FPRAS facade.
	tm := SubstringGuessTM(3)
	input := automata.Word{0, 1, 1, 0, 1, 1, 0}
	m, err := tm.On(input)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := SpanL(m, 3, 0, core.Options{K: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Float64()
	// Substrings of length 3 of 0110110: 011, 110, 101, 011, 110 → 3
	// distinct.
	if f < 2.5 || f > 3.5 {
		t.Fatalf("SpanL estimate = %f, want ≈ 3", f)
	}
}

func TestTMValidate(t *testing.T) {
	good := FibonacciTM()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := FibonacciTM()
	bad.Rules = append(bad.Rules, TMRule{State: 99})
	if err := bad.Validate(); err == nil {
		t.Error("bad state should fail validation")
	}
	bad2 := FibonacciTM()
	bad2.Rules = append(bad2.Rules, TMRule{State: 0, In: 0, Work: 0, Next: 0, Emit: 7})
	if err := bad2.Validate(); err == nil {
		t.Error("bad emit should fail validation")
	}
	bad3 := FibonacciTM()
	bad3.Rules = append(bad3.Rules, TMRule{State: 0, In: 5, Work: 0, Next: 0, Emit: NoEmit})
	if err := bad3.Validate(); err == nil {
		t.Error("bad input symbol should fail validation")
	}
	bad4 := FibonacciTM()
	bad4.WorkCells = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero work cells should fail validation")
	}
	bad5 := FibonacciTM()
	bad5.Accept = []bool{true}
	if err := bad5.Validate(); err == nil {
		t.Error("accept arity mismatch should fail validation")
	}
	bad6 := FibonacciTM()
	bad6.Rules = append(bad6.Rules, TMRule{State: 0, In: 0, Work: 0, Next: 0, MoveIn: 2, Emit: NoEmit})
	if err := bad6.Validate(); err == nil {
		t.Error("bad head move should fail validation")
	}
}

func TestTMOnRejectsInvalid(t *testing.T) {
	tm := FibonacciTM()
	tm.States = 0
	if _, err := tm.On(automata.Word{}); err == nil {
		t.Fatal("invalid TM should be rejected by On")
	}
}
