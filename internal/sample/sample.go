// Package sample implements exact uniform generation of witnesses for
// unambiguous automata — the GEN(MEM-UFA) algorithm of §5.3.3 of the
// paper. The sampler is the counting index of internal/lengthrange:
// NewUFASampler verifies the preconditions and builds the single-length
// index [n, n], and a draw is one uniform random rank in [0, |W|)
// followed by one unrank walk that searches the index's frozen per-edge
// prefix sums, O(n·log Δ) comparisons and O(1) allocations per draw (none
// at all through a DrawSession). The comparisons run on the index's k-limb
// counts (one machine word in the common case), and the rank draw
// (limb.Draw) consumes RandBigInto's entropy exactly, so a draw stream is
// bitwise the same at every limb width. Uniform ranks are uniform
// witnesses exactly — no approximation for the unambiguous class
// (Theorem 5). Counts, ranked access, distinct draws, batches and draw
// sessions are the index's own methods.
//
// PsiSample is the paper's algorithm verbatim — k rounds of
// ψ-quotienting (§5.2) with a full exact recount per round: the faithful,
// slow reference the tests check the index's distribution against.
//
// # Concurrency
//
// The index is frozen, so one may be shared by any number of goroutines
// as long as each call brings its own rng — and each DrawSession, which
// additionally owns reusable scratch, belongs to one goroutine.
// SampleMany fans chunked draws across workers with per-chunk
// seed-derived RNG streams: the batch is a function of (seed, stream, k)
// alone, bitwise identical for every worker count.
package sample

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/lengthrange"
	"repro/internal/selfreduce"
)

// ErrEmpty is returned when the witness set is empty — the paper's ⊥
// answer.
//
// Deprecated: it is lengthrange.ErrEmpty, which the samplers return;
// perfbench compiles against this name (see UFASampler).
var ErrEmpty = lengthrange.ErrEmpty

// RandBig returns a uniformly random integer in [0, max) using rng as the
// entropy source. max must be positive.
func RandBig(rng *rand.Rand, max *big.Int) *big.Int {
	if max.Sign() <= 0 {
		panic("sample: RandBig needs positive max")
	}
	out := new(big.Int)
	buf := make([]byte, (max.BitLen()+7)/8)
	RandBigInto(rng, max, out, buf)
	return out
}

// RandBigInto is the allocation-free core of RandBig: it fills out with a
// uniform value in [0, max) using buf (len ≥ ⌈max.BitLen()/8⌉) as scratch.
// limb.Draw reproduces its byte stream for the counting index's
// zero-allocation draws.
func RandBigInto(rng *rand.Rand, max, out *big.Int, buf []byte) {
	bits := max.BitLen()
	bytes := (bits + 7) / 8
	buf = buf[:bytes]
	excess := uint(bytes*8 - bits)
	for {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		buf[0] >>= excess
		out.SetBytes(buf)
		if out.Cmp(max) < 0 {
			return
		}
	}
}

// NewUFASampler prepares exact uniform generation for L_length(n): it
// checks that the automaton is ε-free and unambiguous and the length is
// not negative, then builds the counting index over [length, length]
// serially and returns it. Unambiguity is verified (it is cheap relative
// to repeated sampling) because on an ambiguous automaton the index
// draws a uniform accepting run, which is biased toward high-ambiguity
// strings.
func NewUFASampler(n *automata.NFA, length int) (*lengthrange.RangeIndex, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("sample: automaton has ε-transitions")
	}
	if length < 0 {
		return nil, fmt.Errorf("sample: negative length %d", length)
	}
	if !automata.IsUnambiguous(n) {
		return nil, fmt.Errorf("sample: automaton is ambiguous; use the FPRAS-based generator")
	}
	return lengthrange.Build(n, length, length, 1)
}

// UFASampler is the counting index.
//
// Deprecated: use *lengthrange.RangeIndex, which NewUFASampler returns;
// this is an alias. The serving benchmark (perfbench, a separate module)
// still compiles against it, NewUFASamplerIndex and ErrEmpty; they go
// when the benchmark next changes.
type UFASampler = lengthrange.RangeIndex

// NewUFASamplerIndex returns idx, an already-built single-length index;
// unambiguity of its automaton is the caller's contract.
//
// Deprecated: use the index itself.
func NewUFASamplerIndex(n *automata.NFA, idx *lengthrange.RangeIndex) *UFASampler { return idx }

// PsiSample runs the paper's §5.3.3 generator literally: k rounds of
// ψ-quotienting with exact counting of every residual instance. It is
// polynomial but much slower than the index (each round recounts from
// scratch); it exists as the faithful reference implementation, and the
// tests check both produce the same distribution.
func PsiSample(n *automata.NFA, length int, rng *rand.Rand) (automata.Word, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("sample: automaton has ε-transitions")
	}
	if !automata.IsUnambiguous(n) {
		return nil, fmt.Errorf("sample: automaton is ambiguous")
	}
	inst := selfreduce.Instance{N: n, K: length}
	if exact.CountUFA(inst.N, inst.K).Sign() == 0 {
		return nil, lengthrange.ErrEmpty
	}
	sigma := n.Alphabet().Size()
	w := make(automata.Word, 0, length)
	for inst.K > 0 {
		// Counts of each residual witness set A(N_a, k−1).
		counts := make([]*big.Int, sigma)
		insts := make([]selfreduce.Instance, sigma)
		total := new(big.Int)
		for a := 0; a < sigma; a++ {
			res, err := selfreduce.Psi(inst, a)
			if err != nil {
				return nil, err
			}
			insts[a] = res
			counts[a] = exact.CountUFA(res.N, res.K)
			total.Add(total, counts[a])
		}
		if total.Sign() == 0 {
			return nil, fmt.Errorf("sample: residual instance became empty")
		}
		pick := RandBig(rng, total)
		acc := new(big.Int)
		for a := 0; a < sigma; a++ {
			acc.Add(acc, counts[a])
			if pick.Cmp(acc) < 0 {
				w = append(w, a)
				inst = insts[a]
				break
			}
		}
	}
	if !selfreduce.EmptyWitness(inst) {
		return nil, fmt.Errorf("sample: ψ chain did not end in an accepting base case")
	}
	return w, nil
}
