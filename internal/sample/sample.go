// Package sample implements exact uniform generation of witnesses for
// unambiguous automata — the GEN(MEM-UFA) algorithm of §5.3.3 of the paper
// — rebuilt around the ranked counting index of internal/countdag: a draw
// is one uniform random rank in [0, |W|) followed by one Unrank walk that
// binary-searches the index's frozen per-edge prefix sums, O(n·log Δ)
// comparisons and O(1) allocations per draw (none at all through a
// DrawSession). The comparisons run on the index's k-limb counts (one
// machine word in the common case; see countdag's memory model), and the
// rank draw (limb.Draw) consumes RandBigInto's entropy exactly, so a
// draw stream is bitwise the same at every limb width. Uniform ranks are
// uniform witnesses exactly — no approximation for the unambiguous class
// (Theorem 5).
//
// Three samplers are provided, fastest first:
//
//   - UFASampler: the index-backed sampler (Sample/SampleDistinct/
//     SampleMany, plus the Rank/Unrank random access the index gives for
//     free). NewUFASampler builds the index once; NewUFASamplerIndex
//     wraps an index that is already built, which is how core shares one
//     index between counting, sampling and enumeration.
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
// A sampler only reads its frozen index (see the countdag package comment
// for the sharing contract), so one UFASampler may be shared by any number
// of goroutines as long as each call brings its own rng — and each
// DrawSession, which additionally owns reusable scratch, belongs to one
// goroutine. SampleMany fans chunked draws across workers with
// per-chunk seed-derived RNG streams: the batch is a function of
// (seed, stream, k) alone, bitwise identical for every worker count.
package sample

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/automata"
	"repro/internal/countdag"
	"repro/internal/exact"
	"repro/internal/faultinject"
	"repro/internal/limb"
	"repro/internal/par"
	"repro/internal/selfreduce"
	"repro/internal/unroll"
)

// ErrEmpty is returned when the witness set is empty — the paper's ⊥
// answer.
var ErrEmpty = errors.New("sample: witness set is empty")

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
// Exported for sampling sessions outside this package (the lengthrange
// draw session) that need zero-allocation repeated draws.
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

// UFASampler draws uniform elements of L_n(N) for an unambiguous N through
// the ranked counting index: rank-space is [0, |W|), a draw is
// Unrank(uniform rank).
type UFASampler struct {
	n      *automata.NFA
	length int
	idx    *countdag.Index
}

// NewUFASampler prepares a sampler for L_length(n), building the unrolled
// DAG and its counting index (serially; pass an index built with workers
// through NewUFASamplerIndex to parallelize or share the precomputation).
// The automaton must be ε-free and unambiguous; unambiguity is verified
// (it is cheap relative to repeated sampling) and an error is returned
// otherwise, because sampling an ambiguous automaton this way would be
// biased toward high-ambiguity strings.
func NewUFASampler(n *automata.NFA, length int) (*UFASampler, error) {
	if err := checkUFA(n, length); err != nil {
		return nil, err
	}
	dag, err := unroll.Build(n, length, unroll.Options{PruneBackward: true})
	if err != nil {
		return nil, err
	}
	return &UFASampler{n: n, length: length, idx: countdag.Build(dag, 1)}, nil
}

// NewUFASamplerIndex wraps an already-built counting index (over the
// backward-pruned unrolling of n to depth idx.N()). The automaton must be
// the one the index was built on; unambiguity remains the caller's
// contract here — core verifies it once at instance construction.
func NewUFASamplerIndex(n *automata.NFA, idx *countdag.Index) *UFASampler {
	return &UFASampler{n: n, length: idx.N(), idx: idx}
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
// and diagnostics). Shared and frozen; see countdag for the contract.
func (s *UFASampler) Index() *countdag.Index { return s.idx }

// Count returns |L_n(N)| (exact). The caller owns the copy.
func (s *UFASampler) Count() *big.Int { return new(big.Int).Set(s.idx.Total()) }

// Rank returns the index of w in the enumeration order of Algorithm 1, or
// an error wrapping countdag.ErrNotMember when w is not a witness.
func (s *UFASampler) Rank(w automata.Word) (*big.Int, error) { return s.idx.Rank(w) }

// Unrank returns the witness at the given rank (0-based, enumeration
// order) — uniform generation's deterministic sibling: Sample is
// Unrank(RandBig(total)).
func (s *UFASampler) Unrank(r *big.Int) (automata.Word, error) { return s.idx.Unrank(r) }

// Sample returns a uniformly random word of L_n(N), or ErrEmpty when the
// slice is empty. It never fails otherwise (Theorem 5's generator is
// errorless, unlike the Las Vegas generator of the NL class). The returned
// word is freshly allocated. Safe for concurrent use as long as each call
// brings its own rng (a *rand.Rand is not concurrency-safe); batch callers
// should prefer a DrawSession (zero allocations per draw) or SampleMany.
func (s *UFASampler) Sample(rng *rand.Rand) (automata.Word, error) {
	if s.idx.Total().Sign() == 0 {
		return nil, ErrEmpty
	}
	var buf [4]uint64
	w := make(automata.Word, s.length)
	if err := s.idx.Draw(rng, limb.Scratch(buf[:], s.idx.Width()), w); err != nil {
		return nil, err
	}
	return w, nil
}

// SampleDistinct draws k distinct witnesses uniformly without replacement,
// by rejection in rank-space: ranks are drawn uniformly and repeats
// discarded, so the result is a uniform k-subset of L_n(N) (in draw
// order). k > |W| returns ErrEmpty when the slice is empty, else an error.
// Rejection is cheap while k ≤ |W|/2 and degrades gracefully (coupon-
// collector) as k approaches |W|.
func (s *UFASampler) SampleDistinct(k int, rng *rand.Rand) ([]automata.Word, error) {
	if k <= 0 {
		return nil, nil
	}
	total := s.idx.Total()
	if total.Sign() == 0 {
		return nil, ErrEmpty
	}
	if total.Cmp(big.NewInt(int64(k))) < 0 {
		return nil, fmt.Errorf("sample: %d distinct witnesses requested but |W| = %v", k, total)
	}
	out := make([]automata.Word, 0, k)
	seen := make(map[string]struct{}, k)
	r := new(big.Int)
	buf := make([]byte, (total.BitLen()+7)/8)
	for len(out) < k {
		RandBigInto(rng, total, r, buf)
		key := string(r.Bytes())
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		w, err := s.idx.Unrank(r)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// sampleChunk is the number of draws one seed-derived RNG stream covers in
// SampleMany: fixed (not worker-dependent) so the batch is identical for
// every worker count.
const sampleChunk = 64

// SampleMany draws k independent uniform witnesses across up to `workers`
// goroutines (≤ 1 = serial). Draw chunks of sampleChunk consecutive
// indices share one RNG stream derived from (seed, stream, chunk) via
// par.StreamRNG, so the batch depends on (seed, stream, k) only — bitwise
// identical for every worker count — and each chunk reuses one
// DrawSession's scratch, so the per-draw cost is one rank draw, one unrank
// walk and the one retained word allocation.
func (s *UFASampler) SampleMany(seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	return s.SampleManyCtx(nil, seed, stream, k, workers)
}

// SampleManyCtx is SampleMany with cooperative cancellation: a non-nil
// ctx is checked at every chunk boundary (the faultinject sample.chunk
// site), never inside a chunk, so the zero-alloc draw loop is untouched.
// A successful call's batch is bitwise identical to SampleMany's for
// every ctx and worker count.
func (s *UFASampler) SampleManyCtx(ctx context.Context, seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	if s.idx.Total().Sign() == 0 {
		return nil, ErrEmpty
	}
	out := make([]automata.Word, k)
	chunks := (k + sampleChunk - 1) / sampleChunk
	err := par.ForEachIndexedCtx(ctx, chunks, workers, func(c int) error {
		if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
			return err
		}
		d := s.NewDrawSession(par.StreamRNG(seed, stream, c, 0))
		lo, hi := c*sampleChunk, (c+1)*sampleChunk
		if hi > k {
			hi = k
		}
		for i := lo; i < hi; i++ {
			w, err := d.Sample()
			if err != nil {
				// Total is positive, so Sample cannot fail; guard anyway.
				panic(err)
			}
			out[i] = append(automata.Word(nil), w...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DrawSession is a single-goroutine sampling stream with reusable scratch:
// Sample performs zero heap allocations per draw (the returned word is
// valid until the next call). Obtain one per goroutine from
// NewDrawSession.
type DrawSession struct {
	s     *UFASampler
	rng   *rand.Rand
	empty bool
	rem   []uint64
	w     automata.Word
}

// NewDrawSession wraps rng with per-session scratch for allocation-free
// repeated draws. The session must not be shared between goroutines.
func (s *UFASampler) NewDrawSession(rng *rand.Rand) *DrawSession {
	return &DrawSession{
		s:     s,
		rng:   rng,
		empty: s.idx.Total().Sign() == 0,
		rem:   make([]uint64, s.idx.Width()),
		w:     make(automata.Word, s.length),
	}
}

// Sample draws one uniform witness. The returned word aliases the
// session's buffer and is only valid until the next call — copy to retain.
func (d *DrawSession) Sample() (automata.Word, error) {
	if d.empty {
		return nil, ErrEmpty
	}
	if err := d.s.idx.Draw(d.rng, d.rem, d.w); err != nil {
		return nil, err
	}
	return d.w, nil
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
