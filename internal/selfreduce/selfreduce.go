// Package selfreduce implements the self-reducibility structure of §5.2 of
// the paper: the polynomial-time functions (ℓ, σ, ψ) that make MEM-NFA (and
// MEM-UFA) self-reducible in the sense of Schmidt, which underpins both the
// UFA uniform generator (§5.3.3) and the polynomial-delay enumeration of
// Theorem 16.
//
// The interesting function is ψ: given an instance (N, 0^k) with k > 0 and a
// first symbol w, ψ((N, 0^k), w) is an instance (N', 0^(k-1)) whose witness
// set is exactly the w-derivative { y : w∘y ∈ L_k(N) }. N' simulates
// starting from Q_w — the states reachable from the start by reading w —
// via a fresh start state; see Quotient for why we deviate from the paper's
// literal Q_w-merge.
//
// The production generator and enumerators read the counting index
// (internal/lengthrange) and the flashlight instead. This package is kept
// as the paper-verbatim reference: sample.PsiSample runs the ψ chain
// literally, and the tests compare the index's draws against it.
package selfreduce

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/bitset"
)

// Instance is an input of the MEM-NFA relation: an automaton and a witness
// length (the paper's (N, 0^k) with k in unary).
type Instance struct {
	N *automata.NFA
	K int
}

// Ell is the paper's ℓ: the length every witness of the instance has. For a
// well-formed instance this is just K.
func Ell(inst Instance) int {
	if inst.N == nil || inst.K < 0 {
		return 0
	}
	return inst.K
}

// Sigma is the paper's σ: how many leading symbols one application of ψ
// consumes (1 while witnesses remain, 0 at the base case).
func Sigma(inst Instance) int {
	if Ell(inst) > 0 {
		return 1
	}
	return 0
}

// EmptyWitness reports whether the empty word is a witness of the instance,
// the ℓ(x) = 0 test of condition (2) of self-reducibility.
func EmptyWitness(inst Instance) bool {
	return inst.K == 0 && inst.N != nil && inst.N.IsFinal(inst.N.Start())
}

// Psi is the paper's ψ: it consumes the first symbol w of a candidate
// witness and returns the residual instance. When σ(inst) = 0, ψ is the
// identity, as in the paper. It returns an error only when w is not a
// symbol of the alphabet.
func Psi(inst Instance, w automata.Symbol) (Instance, error) {
	if inst.N == nil {
		return inst, fmt.Errorf("selfreduce: nil automaton")
	}
	if w < 0 || w >= inst.N.Alphabet().Size() {
		return inst, fmt.Errorf("selfreduce: symbol %d outside alphabet", w)
	}
	if Sigma(inst) == 0 {
		return inst, nil
	}
	return Instance{N: Quotient(inst.N, w), K: inst.K - 1}, nil
}

// Quotient implements the automaton transformation inside ψ for
//
//	Q_w = { q : (q0, w, q) ∈ δ }.
//
// The paper (§5.2) merges the whole of Q_w into a fresh start state q0',
// rewiring every transition that touches Q_w. That literal rewiring is
// over-eager: once merged, a run may *enter* q0' through one member of Q_w
// and *leave* through a different member, so the merged automaton can
// accept strings outside the w-derivative (a length-4 counterexample is in
// the package tests). What self-reducibility actually needs is condition
// (7): W(ψ(x, w)) = { y : w∘y ∈ W(x) }. We therefore use the sound
// variant — a fresh start q0' that carries a copy of the *outgoing*
// transitions of every member of Q_w (a multi-start simulation) while the
// original states, including those in Q_w, are left untouched; the result
// is then trimmed, keeping it within |N|+1 states. This satisfies
//
//	L_t(N') = { y : |y| = t and w∘y ∈ L_{t+1}(N) }   for every t ≥ 0,
//
// preserves unambiguity, and keeps every instance produced along a ψ-chain
// of length k within m+1 states, so all of §5's polynomial bounds go
// through unchanged.
func Quotient(n *automata.NFA, w automata.Symbol) *automata.NFA {
	m := n.NumStates()
	qw := bitset.New(m)
	for _, q := range n.Successors(n.Start(), w) {
		qw.Add(q)
	}

	out := automata.New(n.Alphabet(), m+1)
	fresh := m
	out.SetStart(fresh)
	n.EachTransition(func(q int, a automata.Symbol, p int) {
		out.AddTransition(q, a, p)
	})
	for _, f := range n.Finals() {
		out.SetFinal(f, true)
	}
	finalFresh := false
	qw.ForEach(func(q int) {
		if n.IsFinal(q) {
			finalFresh = true
		}
		for a := 0; a < n.Alphabet().Size(); a++ {
			for _, p := range n.Successors(q, a) {
				out.AddTransition(fresh, a, p)
			}
		}
	})
	out.SetFinal(fresh, finalFresh)
	return automata.Trim(out)
}

// WitnessLanguageCheck verifies condition (8) of self-reducibility on a
// single word: (inst, y) ∈ MEM-NFA iff (ψ(inst, y₁), y₂…y_k) ∈ MEM-NFA.
// Exposed for tests and the harness.
func WitnessLanguageCheck(inst Instance, y automata.Word) (bool, error) {
	direct := len(y) == inst.K && inst.N.Accepts(y)
	if inst.K == 0 {
		return direct == (len(y) == 0 && EmptyWitness(inst)), nil
	}
	if len(y) == 0 {
		return !direct, nil
	}
	res, err := Psi(inst, y[0])
	if err != nil {
		return false, err
	}
	viaPsi := len(y[1:]) == res.K && res.N.Accepts(y[1:])
	return direct == viaPsi, nil
}
