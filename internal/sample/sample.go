// Package sample implements exact uniform generation of witnesses for
// unambiguous automata — the GEN(MEM-UFA) algorithm of §5.3.3 of the paper
// — on the ranked counting index of internal/lengthrange: a draw is one
// uniform random rank in [0, |W|) followed by one unrank walk that
// searches the index's frozen per-edge prefix sums, O(n·log Δ)
// comparisons and O(1) allocations per draw (none at all through a
// DrawSession). The comparisons run on the index's k-limb counts (one
// machine word in the common case), and the rank draw (limb.Draw)
// consumes RandBigInto's entropy exactly, so a draw stream is bitwise the
// same at every limb width. Uniform ranks are uniform witnesses exactly —
// no approximation for the unambiguous class (Theorem 5).
//
// Three samplers are provided, fastest first:
//
//   - UFASampler: the index-backed sampler (Sample/SampleDistinct/
//     SampleMany, plus the Rank/Unrank random access the index gives for
//     free). NewUFASampler verifies unambiguity and builds the
//     single-length index [n, n]; every draw, batch and draw session is
//     the index's own.
//
//   - WalkSampler: the pre-index reference — the §5.3.3 completion-count
//     walk that re-derives the residual counts edge by edge on every draw
//     (the sampler this package shipped before the index existed). It is
//     kept as the distribution oracle the tests compare against and as the
//     baseline experiment E17 measures.
//
//   - PsiSample: the paper's algorithm verbatim — k rounds of ψ-quotienting
//     (§5.2) with a full exact recount per round. The faithful, slow
//     reference.
//
// All three yield every witness with probability exactly 1/|W|; the tests
// check the distributions agree.
//
// # Concurrency
//
// A sampler only reads its frozen index, so one UFASampler may be shared
// by any number of goroutines as long as each call brings its own rng —
// and each DrawSession, which additionally owns reusable scratch, belongs
// to one goroutine. SampleMany fans chunked draws across workers with
// per-chunk seed-derived RNG streams: the batch is a function of
// (seed, stream, k) alone, bitwise identical for every worker count.
package sample

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/lengthrange"
	"repro/internal/selfreduce"
)

// ErrEmpty is returned when the witness set is empty — the paper's ⊥
// answer. It is the index's own sentinel, so errors from either package
// compare equal.
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

// UFASampler draws uniform elements of L_n(N) for an unambiguous N
// through the single-length counting index: rank-space is [0, |W|), a
// draw is the unrank of a uniform rank.
type UFASampler struct {
	length int
	idx    *lengthrange.RangeIndex
}

// NewUFASampler prepares a sampler for L_length(n), building the counting
// index over [length, length] serially. The automaton must be ε-free and
// unambiguous; unambiguity is verified (it is cheap relative to repeated
// sampling) and an error is returned otherwise, because sampling an
// ambiguous automaton this way would be biased toward high-ambiguity
// strings.
func NewUFASampler(n *automata.NFA, length int) (*UFASampler, error) {
	if err := checkUFA(n, length); err != nil {
		return nil, err
	}
	idx, err := lengthrange.Build(n, length, length, 1)
	if err != nil {
		return nil, err
	}
	return &UFASampler{length: length, idx: idx}, nil
}

// NewUFASamplerIndex wraps an already-built single-length index (its
// range is [n, n]); unambiguity of its automaton is the caller's
// contract.
//
// Deprecated: draw from the index itself (RangeIndex.SampleManyCtx and
// friends). The serving benchmark (perfbench, a separate module whose
// mirror still calls it) keeps it alive until the benchmark changes.
func NewUFASamplerIndex(n *automata.NFA, idx *lengthrange.RangeIndex) *UFASampler {
	return &UFASampler{length: idx.Hi(), idx: idx}
}

// checkUFA validates the sampler's preconditions.
func checkUFA(n *automata.NFA, length int) error {
	if n.HasEpsilon() {
		return fmt.Errorf("sample: automaton has ε-transitions")
	}
	if length < 0 {
		return fmt.Errorf("sample: negative length %d", length)
	}
	if !automata.IsUnambiguous(n) {
		return fmt.Errorf("sample: automaton is ambiguous; use the FPRAS-based generator")
	}
	return nil
}

// Index exposes the underlying counting index (for rank-seek enumeration
// and diagnostics). Shared and frozen; see lengthrange for the contract.
func (s *UFASampler) Index() *lengthrange.RangeIndex { return s.idx }

// Count returns |L_n(N)| (exact). The caller owns the result.
func (s *UFASampler) Count() *big.Int { return s.idx.TotalRange() }

// Rank returns the index of w in the enumeration order of Algorithm 1, or
// an error wrapping lengthrange.ErrNotMember when w is not a witness.
func (s *UFASampler) Rank(w automata.Word) (*big.Int, error) { return s.idx.RankAt(w) }

// Unrank returns the witness at the given rank (0-based, enumeration
// order) — uniform generation's deterministic sibling: Sample is
// Unrank(RandBig(total)).
func (s *UFASampler) Unrank(r *big.Int) (automata.Word, error) { return s.idx.UnrankAt(s.length, r) }

// Sample returns a uniformly random word of L_n(N), or ErrEmpty when the
// slice is empty. It never fails otherwise (Theorem 5's generator is
// errorless, unlike the Las Vegas generator of the NL class). The returned
// word is freshly allocated. Safe for concurrent use as long as each call
// brings its own rng (a *rand.Rand is not concurrency-safe); batch callers
// should prefer a DrawSession (zero allocations per draw) or SampleMany.
func (s *UFASampler) Sample(rng *rand.Rand) (automata.Word, error) { return s.idx.Sample(rng) }

// SampleDistinct draws k distinct witnesses uniformly without replacement
// (RangeIndex.SampleDistinctAt: rejection in rank-space).
func (s *UFASampler) SampleDistinct(k int, rng *rand.Rand) ([]automata.Word, error) {
	return s.idx.SampleDistinctAt(s.length, k, rng)
}

// SampleMany draws k independent uniform witnesses across up to `workers`
// goroutines (≤ 1 = serial), in fixed chunks with seed-derived RNG
// streams: the batch depends on (seed, stream, k) only — bitwise
// identical for every worker count (RangeIndex.SampleMany).
func (s *UFASampler) SampleMany(seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	return s.idx.SampleMany(seed, stream, k, workers)
}

// SampleManyCtx is SampleMany with cooperative cancellation at chunk
// boundaries (RangeIndex.SampleManyCtx).
func (s *UFASampler) SampleManyCtx(ctx context.Context, seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	return s.idx.SampleManyCtx(ctx, seed, stream, k, workers)
}

// NewDrawSession wraps rng with per-session scratch for allocation-free
// repeated draws (RangeIndex.NewDrawSession). The session must not be
// shared between goroutines.
func (s *UFASampler) NewDrawSession(rng *rand.Rand) *lengthrange.DrawSession {
	return s.idx.NewDrawSession(rng)
}

// WalkSampler is the pre-index reference sampler: the §5.3.3 walk over the
// completion-count table, choosing each next symbol with probability
// proportional to the residual counts — one RandBig and one big.Int
// accumulation per transition per draw. It exists as the oracle the
// index-backed sampler is tested against and as the baseline experiment
// E17 and BenchmarkSampleUFA measure; new code should use UFASampler.
type WalkSampler struct {
	n      *automata.NFA
	length int
	// comp[r][q] = number of accepting completions of length r from q.
	comp  [][]*big.Int
	total *big.Int
}

// NewWalkSampler prepares the reference sampler (same preconditions as
// NewUFASampler).
func NewWalkSampler(n *automata.NFA, length int) (*WalkSampler, error) {
	if err := checkUFA(n, length); err != nil {
		return nil, err
	}
	comp := exact.CompletionCounts(n, length)
	return &WalkSampler{n: n, length: length, comp: comp, total: comp[length][n.Start()]}, nil
}

// Count returns |L_n(N)| (exact).
func (s *WalkSampler) Count() *big.Int { return new(big.Int).Set(s.total) }

// Sample returns a uniformly random word of L_n(N), or ErrEmpty when the
// slice is empty, by the per-draw residual-count walk.
func (s *WalkSampler) Sample(rng *rand.Rand) (automata.Word, error) {
	if s.total.Sign() == 0 {
		return nil, ErrEmpty
	}
	w := make(automata.Word, 0, s.length)
	q := s.n.Start()
	for r := s.length; r > 0; r-- {
		// Choose among outgoing transitions with weight = completions.
		pick := RandBig(rng, s.comp[r][q])
		acc := new(big.Int)
		chosen := false
		for a := 0; a < s.n.Alphabet().Size() && !chosen; a++ {
			for _, p := range s.n.Successors(q, a) {
				c := s.comp[r-1][p]
				if c.Sign() == 0 {
					continue
				}
				acc.Add(acc, c)
				if pick.Cmp(acc) < 0 {
					w = append(w, a)
					q = p
					chosen = true
					break
				}
			}
		}
		if !chosen {
			// Unreachable if comp is consistent; guard against misuse.
			return nil, fmt.Errorf("sample: internal inconsistency at remaining length %d", r)
		}
	}
	if !s.n.IsFinal(q) {
		return nil, fmt.Errorf("sample: walk ended in non-final state %d", q)
	}
	return w, nil
}

// PsiSample runs the paper's §5.3.3 generator literally: k rounds of
// ψ-quotienting with exact counting of every residual instance. It is
// polynomial but much slower than UFASampler (each round recounts from
// scratch); it exists as the faithful reference implementation, and the
// tests check all samplers produce the same distribution.
func PsiSample(n *automata.NFA, length int, rng *rand.Rand) (automata.Word, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("sample: automaton has ε-transitions")
	}
	if !automata.IsUnambiguous(n) {
		return nil, fmt.Errorf("sample: automaton is ambiguous")
	}
	inst := selfreduce.Instance{N: n, K: length}
	if exact.CountUFA(inst.N, inst.K).Sign() == 0 {
		return nil, ErrEmpty
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
