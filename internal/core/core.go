// Package core is the library's front door: it wraps a MEM-NFA instance
// (an ε-free automaton plus a witness length, the complete problem of both
// complexity classes by Proposition 12) and routes the three fundamental
// problems — ENUM, COUNT, GEN — to the algorithm the paper prescribes for
// the instance's class:
//
//	                 RelationUL (unambiguous)     RelationNL (general)
//	ENUM     constant delay (Algorithm 1)     polynomial delay (Thm 16)
//	COUNT    exact, polynomial time (#L)      FPRAS (Theorem 22)
//	GEN      exact uniform (§5.3.3)           Las Vegas uniform (Cor 23)
//
// Class detection is automatic (the squared-automaton unambiguity test);
// general alphabets are bridged to the binary FPRAS core through the
// witness-preserving encoding of internal/automata.
//
// RelationUL instances run every problem on one counting index
// (internal/lengthrange over the single length [n, n], built lazily
// through the compiled-index cache and shared by every consumer):
// Algorithm 1's enumeration sessions walk its pruned edge lists — a fresh
// session, a resumed page and a seek alike open on the cached entry, so
// a resumed page costs an O(n) walk, not a precomputation — Rank/Unrank
// convert between witnesses and their index in the enumeration order,
// Sample and SampleManyParallel draw from it, SampleDistinct draws
// without replacement in rank-space, and CursorOptions.SeekRank (or a
// kind-'r' rank token) starts an enumeration session at any rank in
// O(n·log Δ) without replaying a cursor. RelationNL instances enumerate
// with the flashlight, opened fresh or at a word cursor. Both classes hand
// the opened enumerator to one session choice: the enumerator itself for
// a serial session; its Stream, or StreamFrom over the suffix after its
// cursor, for a parallel one; its ResumeFrontier or StreamFrom for a
// frontier token.
//
// # Ranged access over a length range
//
// Beyond the instance's own witness length, every problem is also served
// uniformly over ALL lengths n in a caller-chosen range [lo, hi] from the
// same kind of index over [lo, hi] (built lazily per range and cached):
// TotalRange counts the union, RankRange/UnrankRange convert between
// witnesses of any length in the range and their global index in
// length-lexicographic order (all length-lo words in engine order, then
// lo+1, …), SampleRange/SampleManyRange draw uniformly from the union
// (length selected with probability proportional to its exact count, then
// unranked within), and EnumerateRange streams the union in that same
// order through chained per-length sessions (enumerate.RangeSession), all
// walking the one [lo, hi] index — resumable via el1:R: range tokens,
// parallel per length under the work-stealing scheduler, and seekable to
// any global rank via CursorOptions.SeekRank. Exact ranged access is
// RelationUL-only (for RelationNL it would imply exact #NFA counting);
// EnumerateRange alone works for both classes.
//
// # Compiled-index caching
//
// Every index — the instance's single-length one and every range — is
// resolved through a compiled-index cache (internal/instcache) keyed by
// the instance's normal form (automata.Normalize) and the length range,
// one entry per [lo, hi]. Options.Cache shares one cache across
// instances, so a serving workload that sees the same automaton twice —
// or any relabelling of a DFA — pays each backward sweep once; with a nil
// Options.Cache the instance gets a private cache with
// instcache.DefaultBudget, which also byte-bounds the retention of
// alternating range queries. A cache hit is observably identical to a
// fresh build: every count, sample stream, token and resume minted
// through a cached index is bitwise what an uncached instance produces.
// That guarantee is by construction, not by argument: the engine's
// enumeration order is structural (decision-list edges are ordered by
// successor state id), so New canonicalizes deterministic automata and
// cache entries bind to exact normalized structure. Two consequences are
// deliberate: relabelled NONdeterministic UFAs never share an entry
// (relabelling permutes their sorted successor lists and with them the
// enumeration order), and DFAs with one language but non-isomorphic
// structure never share one either — their decision-list orders differ.
// See internal/instcache for the full keying, eviction and singleflight
// contract.
//
// # Concurrency
//
// Instance methods are safe for concurrent use: the lazily built FPRAS
// engine and the internal RNG are guarded by a mutex, the cache
// deduplicates index builds, and the FPRAS engine
// underneath is itself concurrent (see internal/fpras). Sample serializes
// on the internal RNG; SampleManyParallel is the parallel-throughput path
// and is deterministic per Options.Seed regardless of the worker count.
// Enumerate opens independent sessions, so concurrent enumerations never
// interfere; a single session is for one goroutine (see
// internal/enumerate for the cursor and sharding contracts).
//
// # Cancellation and admission control
//
// Every long-running path is cooperatively cancellable and admission-
// checked up front. Cancellation: CursorOptions.Ctx (and the ctx
// arguments of CountCtx, SampleManyParallelCtx, SampleManyRangeCtx) is
// checked at delivery-batch boundaries, at range-session length advances,
// at sampling chunk boundaries and at every layer of any index build the
// call triggers — never inside a per-word hot loop. A cancelled session
// reports ctx.Err() from Err and still mints its true resume position
// from Token: cancellation is a checkpoint, never corruption, so the
// token resumes bitwise where the cancel landed. Cancelling a caller
// that is waiting on an index build abandons the WAIT, not necessarily
// the build: builds run deduplicated through the compiled-index cache,
// so the build keeps going while other waiters remain and is abandoned
// within one layer (leaving no partial state behind) once the last
// waiter cancels — the next caller then rebuilds from scratch.
// Admission: Options.Limits is
// enforced BEFORE any length-sized precomputation — New bounds the
// automaton and length, sessions bound their merge budget, ranged calls
// bound the span, index builds bound the estimated footprint in bytes
// (RelationUL enumeration included: its sessions open on the index), and
// batch sampling bounds the batch — with every rejection wrapping
// admission.ErrRejected, so an over-budget request costs validation, not
// a build it was never going to be allowed to use. Resume tokens are
// decoded and fingerprint-checked before the index is resolved, so a
// forged or foreign token costs no build either.
//
// # Serving tier
//
// The package is designed to sit behind a stateless server (cmd/nfad):
// every streaming position serializes to a self-contained fingerprinted
// el1: token, so ANY replica can resume ANY client's stream — pagination
// is the el1: token round-tripping through CursorOptions.Cursor, and two
// shared-nothing replicas alternating pages produce a transcript bitwise
// identical to one uninterrupted enumeration. The request lifecycle maps
// one-to-one onto server concerns: Options.Limits is the per-tenant
// admission policy (ErrRejected ⇒ a 4xx before any length-sized
// precompute), CursorOptions.Ctx/CountCtx/…Ctx variants carry the
// request deadline (cancel ⇒ checkpoint token, returnable in an error
// body), and Options.Cache is the process-wide multi-tenant compiled-
// index cache — relabellings of one DFA across tenants share one
// build, and the byte budget bounds memory per cached tenant. See
// cmd/nfad for the HTTP surface and internal/loadgen for the load
// harness that measures it (experiment E21).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/fpras"
	"repro/internal/instcache"
	"repro/internal/lengthrange"
)

// streamULBatch namespaces SampleManyParallel's per-draw RNG streams on the
// exact-uniform (ClassUL) path; the FPRAS path derives its own inside
// internal/fpras. streamULRange namespaces SampleManyRange's streams so
// single-length and range batches never alias.
const (
	streamULBatch = 0xC0DE1
	streamULRange = 0xC0DE2
)

// Class labels which complexity class's algorithms an instance gets.
type Class int

const (
	// ClassUL: the automaton is unambiguous — Theorem 5 algorithms apply.
	ClassUL Class = iota
	// ClassNL: the automaton is ambiguous — Theorem 2 algorithms apply.
	ClassNL
)

func (c Class) String() string {
	if c == ClassUL {
		return "RelationUL"
	}
	return "RelationNL"
}

// ErrEmpty is returned by Sample when the witness set is empty (the
// paper's ⊥ answer).
var ErrEmpty = errors.New("core: witness set is empty")

// Options tune the randomized components.
type Options struct {
	// Delta is the FPRAS target relative error (default 0.1).
	Delta float64
	// K overrides the FPRAS sketch size (default derived from Delta).
	K int
	// MaxTries bounds rejection-sampling attempts per sample.
	MaxTries int
	// Seed makes runs reproducible (default fixed).
	Seed int64
	// Workers bounds the FPRAS build parallelism and the default
	// parallelism of SampleManyParallel (0 = GOMAXPROCS, 1 = serial).
	// Results never depend on it — only wall-clock does.
	Workers int
	// ForceClass, when non-nil, skips detection and forces a class
	// (ClassNL is always sound; forcing ClassUL on an ambiguous automaton
	// yields wrong counts, so it is rejected unless the automaton really
	// is unambiguous).
	ForceClass *Class
	// Limits, when non-nil, is the admission policy every entry point
	// enforces BEFORE any length-sized precomputation: New rejects
	// oversized automata and witness lengths, enumeration rejects
	// over-budget sessions, ranged access rejects too-wide ranges, index
	// builds reject estimated footprints over the byte cap, and batch
	// sampling rejects oversized batches. Rejections wrap
	// admission.ErrRejected. nil (or a zero field) means unlimited.
	Limits *admission.Limits
	// Cache, when non-nil, is a compiled-index cache shared across
	// instances (and processes' worth of instances): the lazily built
	// counting and cross-length indexes are looked up by the automaton's
	// normal form before being built, so two instances over the same
	// automaton, or over two relabellings of one DFA, share one build.
	// Equal languages alone do not: two DFAs share a build only when
	// their normal forms are equal. nil means a private per-instance
	// cache with instcache.DefaultBudget — the same code path, unshared.
	// See the package comment's caching section and internal/instcache.
	Cache *instcache.Cache
}

// Instance is a prepared MEM-NFA instance.
type Instance struct {
	n      *automata.NFA
	length int
	class  Class
	opts   Options
	seed   int64

	// cache resolves every index build: Options.Cache when set, else a
	// private instcache with the default byte budget. The instance keeps
	// no index of its own. Immutable after New.
	cache *instcache.Cache
	// cacheKey memoizes the instance's cache key (its normal form and
	// the form's pre-hash).
	keyOnce  sync.Once
	cacheKey *instcache.Key

	// mu guards the internal RNG and the lazily built FPRAS engine below;
	// the engine itself is safe for concurrent use once built. The RNG is
	// seeded on first use (rngLocked): only Sample, SampleRange and
	// SampleDistinct read it, and a 607-word source per instance is most
	// of what New would otherwise allocate.
	mu  sync.Mutex
	rng *rand.Rand               // guarded by mu
	est *fpras.Estimator         // guarded by mu
	enc *automata.BinaryEncoding // guarded by mu
}

// New prepares an instance for the witness length `length`. The automaton
// must be ε-free; it is brought to automata.Normalize's normal form —
// trimmed, and for deterministic automata canonically renumbered, in one
// copy (Automaton returns that form) — and its class detected.
func New(n *automata.NFA, length int, opts Options) (*Instance, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("core: automaton has ε-transitions; call automata.RemoveEpsilon first")
	}
	if length < 0 {
		return nil, fmt.Errorf("core: negative witness length %d", length)
	}
	// Admission first: reject oversized inputs before the O(states²)
	// unambiguity test or any length-sized work downstream.
	if err := opts.Limits.CheckStates(n.NumStates()); err != nil {
		return nil, err
	}
	if err := opts.Limits.CheckLength(length); err != nil {
		return nil, err
	}
	// Enumeration order is a structural invariant — the unrolled DAG
	// orders a vertex's decision list by successor state id — so the
	// instance operates on the normal form: every relabelling of one DFA
	// becomes byte-identical here, which makes all observables (order,
	// ranks, tokens) relabelling-invariant and a compiled-index cache hit
	// sound for every consumer.
	norm := automata.Normalize(n)
	var class Class
	if opts.ForceClass != nil {
		class = *opts.ForceClass
		if class == ClassUL && !automata.IsUnambiguous(norm) {
			return nil, fmt.Errorf("core: cannot force RelationUL on an ambiguous automaton")
		}
	} else if automata.IsUnambiguous(norm) {
		class = ClassUL
	} else {
		class = ClassNL
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0xC0DE
	}
	cache := opts.Cache
	if cache == nil {
		cache = instcache.New(instcache.DefaultBudget)
	}
	return &Instance{
		n:      norm,
		length: length,
		class:  class,
		opts:   opts,
		seed:   seed,
		cache:  cache,
	}, nil
}

// rngLocked returns the instance's sample stream, seeded from the
// instance seed on first use, so the stream is the same whichever call
// reads it first. The caller holds in.mu.
func (in *Instance) rngLocked() *rand.Rand {
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(in.seed))
	}
	return in.rng
}

// key returns the instance's memoized cache key, built on first use:
// the instance automaton is already the normal form, so the key is that
// automaton and its one-pass structural pre-hash, with no normalization
// pass again.
func (in *Instance) key() *instcache.Key {
	in.keyOnce.Do(func() { in.cacheKey = instcache.KeyForNormal(in.n) })
	return in.cacheKey
}

// Class returns the detected (or forced) class.
func (in *Instance) Class() Class { return in.class }

// Automaton returns the trimmed automaton the instance operates on.
func (in *Instance) Automaton() *automata.NFA { return in.n }

// Length returns the witness length.
func (in *Instance) Length() int { return in.length }

// CountExact computes |W| exactly. For ClassUL this is the polynomial #L
// dynamic program; for ClassNL it falls back to the subset-construction
// counter, which may exceed maxSubsets (0 = package default) and return an
// error — exact counting for NFAs is #P-hard, which is the point of the
// FPRAS.
func (in *Instance) CountExact(maxSubsets int) (*big.Int, error) {
	if in.class == ClassUL {
		return exact.CountUFA(in.n, in.length), nil
	}
	return exact.CountNFA(in.n, in.length, maxSubsets)
}

// Count returns the class-appropriate count: exact (as a big.Float, with
// exact=true) for ClassUL; the FPRAS estimate for ClassNL.
func (in *Instance) Count() (value *big.Float, isExact bool, err error) {
	if in.class == ClassUL {
		c := exact.CountUFA(in.n, in.length)
		return new(big.Float).SetPrec(uint(64 + in.length)).SetInt(c), true, nil
	}
	est, err := in.estimator()
	if err != nil {
		return nil, false, err
	}
	return est.Count(), est.Exact(), nil
}

// CountCtx is Count with cooperative cancellation: for ClassNL the FPRAS
// build checks ctx between unrolling layers, so a cancelled caller
// abandons the (potentially large) sketch construction promptly. The
// ClassUL exact count checks ctx once up front — the #L dynamic program
// itself is the cheapest length-sized pass the instance runs.
func (in *Instance) CountCtx(ctx context.Context) (value *big.Float, isExact bool, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if in.class == ClassUL {
		return in.Count()
	}
	est, err := in.estimatorCtx(ctx)
	if err != nil {
		return nil, false, err
	}
	return est.Count(), est.Exact(), nil
}

// estimator lazily builds the FPRAS state, binary-encoding the alphabet if
// needed. Safe for concurrent use: the first caller builds under the lock,
// later callers reuse the frozen engine.
func (in *Instance) estimator() (*fpras.Estimator, error) {
	return in.estimatorCtx(nil)
}

// estimatorCtx is estimator with cooperative cancellation: ctx is checked
// between the build's unrolling layers (see fpras.Params.Ctx), so a
// cancelled caller abandons the build promptly; a nil ctx never cancels.
// A cancelled build leaves no partial state behind — the next caller
// rebuilds from scratch.
func (in *Instance) estimatorCtx(ctx context.Context) (*fpras.Estimator, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.est != nil {
		return in.est, nil
	}
	n, length := in.n, in.length
	var enc *automata.BinaryEncoding
	if n.Alphabet().Size() != 2 {
		enc = automata.BinaryEncode(n)
		n = enc.Encoded
		length = enc.EncodedLength(in.length)
	}
	// Admission on the ENCODED footprint: the binary bridge stretches the
	// length by ~log|Σ|, and the sketch layers are sized by the encoded
	// unrolling, so that is the estimate that matters.
	if err := in.opts.Limits.CheckIndexBytes(admission.EstimateIndexBytes(n.NumStates(), n.NumTransitions(), length)); err != nil {
		return nil, err
	}
	est, err := fpras.New(n, length, fpras.Params{
		K:        in.opts.K,
		MaxTries: in.opts.MaxTries,
		Delta:    in.opts.Delta,
		Seed:     in.opts.Seed,
		Workers:  in.opts.Workers,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, err
	}
	in.enc = enc
	in.est = est
	return est, nil
}

// Rank returns the 0-based index of the witness w in the instance's
// enumeration order, or an error (wrapping lengthrange.ErrNotMember) when
// w is not a witness. Exact ranked access is a RelationUL capability —
// for RelationNL it would imply exact #NFA counting, which is #P-hard.
func (in *Instance) Rank(w automata.Word) (*big.Int, error) {
	return in.RankCtx(nil, w)
}

// RankCtx is Rank with cooperative cancellation: ctx is checked at every
// layer of the (lazy) counting-index build the call may trigger; a nil
// ctx never cancels. The rank itself is ctx-free — reconstructing one run
// is O(n·m), cheaper than a single delivery batch.
func (in *Instance) RankCtx(ctx context.Context, w automata.Word) (*big.Int, error) {
	if in.class != ClassUL {
		return nil, fmt.Errorf("core: Rank requires an unambiguous instance (RelationUL)")
	}
	ri, err := in.index(ctx, in.length, in.length)
	if err != nil {
		return nil, err
	}
	return ri.RankAt(w)
}

// Unrank returns the witness at the given 0-based rank of the enumeration
// order — random access into the witness stream. RelationUL only, like
// Rank.
func (in *Instance) Unrank(r *big.Int) (automata.Word, error) {
	return in.UnrankCtx(nil, r)
}

// UnrankCtx is Unrank with cooperative cancellation: ctx is checked at
// every layer of the (lazy) counting-index build the call may trigger; a
// nil ctx never cancels. The descent itself is ctx-free, like RankCtx.
func (in *Instance) UnrankCtx(ctx context.Context, r *big.Int) (automata.Word, error) {
	if in.class != ClassUL {
		return nil, fmt.Errorf("core: Unrank requires an unambiguous instance (RelationUL)")
	}
	ri, err := in.index(ctx, in.length, in.length)
	if err != nil {
		return nil, err
	}
	return ri.UnrankAt(in.length, r)
}

// SampleDistinct draws k distinct witnesses uniformly without replacement
// (rank-space rejection through the counting index), consuming the
// instance's internal RNG stream like Sample. RelationUL only; ErrEmpty
// when the witness set is empty.
func (in *Instance) SampleDistinct(k int) ([]automata.Word, error) {
	return in.SampleDistinctCtx(nil, k)
}

// SampleDistinctCtx is SampleDistinct with cooperative cancellation: ctx
// is checked at every layer of the (lazy) counting-index build the call
// may trigger, never inside a draw. A nil ctx never cancels; the batch
// contents are identical to SampleDistinct.
func (in *Instance) SampleDistinctCtx(ctx context.Context, k int) ([]automata.Word, error) {
	if in.class != ClassUL {
		return nil, fmt.Errorf("core: SampleDistinct requires an unambiguous instance (RelationUL); sample with replacement and deduplicate for RelationNL")
	}
	if err := in.opts.Limits.CheckSampleBatch(k); err != nil {
		return nil, err
	}
	ri, err := in.index(ctx, in.length, in.length)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	ws, err := ri.SampleDistinctAt(in.length, k, in.rngLocked())
	in.mu.Unlock()
	if err == lengthrange.ErrEmpty {
		return nil, ErrEmpty
	}
	return ws, err
}

// CursorOptions configure an enumeration session.
type CursorOptions struct {
	// Ctx, when non-nil, cancels the session cooperatively: it is checked
	// at delivery-batch boundaries (never in the per-word hot loop), when
	// a range session advances to its next length, and at every layer of
	// any index build the session triggers. A cancelled session stops
	// within one delivery batch, Err reports ctx.Err(), and Token still
	// mints the session's true resume position — cancellation is a
	// checkpoint, never corruption. nil means the session only stops when
	// drained or closed.
	Ctx context.Context
	// Cursor resumes from a token minted by a previous session's Token
	// ("" starts from the first witness). Serial tokens, rank tokens
	// (RelationUL, kind 'r') and multi-cell frontier tokens (from parallel
	// sessions) all resume with any Workers setting: a serial or rank
	// token opened with Workers > 1 is re-sharded into suffix cells, and a
	// frontier token opened serially drains its cells one after another.
	Cursor string
	// SeekRank, when non-nil, starts the session at the witness with this
	// 0-based rank of the enumeration order — O(n·log Δ) random access
	// through the counting index instead of replaying a cursor.
	// RelationUL only; mutually exclusive with Cursor. SeekRank = |W|
	// opens an exhausted session.
	SeekRank *big.Int
	// Limit stops the session after this many outputs (≤ 0 = unbounded).
	// The resume token of a limited session points just past the last
	// emitted witness, so paginated calls chain cleanly.
	Limit int
	// Workers > 1 enables work-stealing sharded parallel enumeration
	// across that many goroutines (0 or 1 = serial).
	Workers int
	// Shards is the target initial prefix-cell count for parallel
	// sessions (0 = 4×Workers); work-stealing re-shards skewed cells on
	// the fly.
	Shards int
	// Ordered makes a parallel session emit in the canonical serial order
	// (bitwise identical to Workers ≤ 1); unordered parallel sessions
	// emit in per-shard arrival order for maximum throughput.
	Ordered bool
	// MergeBudget caps the words a parallel session buffers ahead of the
	// consumer (0 = enumerate.DefaultMergeBudget); in ordered mode cells
	// that run too far ahead are spilled to their resume cursors and
	// reopened later, so peak buffering respects the budget on any skew.
	MergeBudget int
	// StealThreshold is the number of words a cell must produce between
	// splits before idle workers may re-shard it (≤ 0 =
	// enumerate.DefaultStealThreshold).
	StealThreshold int
}

// Enumerate opens a class-appropriate enumeration session: Algorithm 1
// (constant delay) for ClassUL, the flashlight (polynomial delay) for
// ClassNL. Every session is resumable via Token: serial sessions mint a
// single-position cursor, parallel sessions (Workers > 1, scheduled by
// work-stealing across prefix cells) a multi-cell frontier token; both
// resume through Cursor/EnumerateFrom with any worker count. Close the
// session when done (a no-op for serial sessions).
func (in *Instance) Enumerate(opts CursorOptions) (enumerate.Session, error) {
	s, err := in.openSession(opts)
	if err != nil {
		return nil, err
	}
	if opts.Limit > 0 {
		s = &limitedSession{Session: s, left: opts.Limit}
	}
	return s, nil
}

func (in *Instance) openSession(opts CursorOptions) (enumerate.Session, error) {
	return in.openSessionAt(in.length, in.length, in.length, opts)
}

// openSessionAt is openSession generalized over the witness length: the
// instance's own length for Enumerate, any length in a range for the
// per-length sessions an EnumerateRange chain opens. A RelationUL session
// opens on the counting index over [lo, hi] — [length, length] for
// Enumerate, the range for EnumerateRange — resolved through the cache.
// Cursor lengths are validated against `length`, and every token's
// fingerprint before the index is resolved. Admission runs first; the
// returned session carries opts.Ctx — parallel streams through their own
// watcher, serial sessions through the enumerate.WithContext boundary
// wrapper.
func (in *Instance) openSessionAt(length, lo, hi int, opts CursorOptions) (enumerate.Session, error) {
	if err := in.opts.Limits.CheckLength(length); err != nil {
		return nil, err
	}
	if opts.Workers > 1 {
		budget := opts.MergeBudget
		if budget <= 0 {
			budget = enumerate.DefaultMergeBudget
		}
		if err := in.opts.Limits.CheckMergeBudget(budget); err != nil {
			return nil, err
		}
	}
	if opts.SeekRank != nil && opts.Cursor != "" {
		return nil, fmt.Errorf("core: SeekRank and Cursor are mutually exclusive")
	}
	sopts := enumerate.StreamOptions{
		Ctx:            opts.Ctx,
		Workers:        opts.Workers,
		Shards:         opts.Shards,
		Ordered:        opts.Ordered,
		MergeBudget:    opts.MergeBudget,
		StealThreshold: opts.StealThreshold,
	}
	var s enumerate.Session
	var err error
	if in.class == ClassUL {
		s, err = in.openUL(length, lo, hi, opts, sopts)
	} else {
		s, err = in.openNL(length, opts, sopts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 1 {
		// Streams carry opts.Ctx in StreamOptions; serial sessions get the
		// batch-boundary wrapper (a no-op for a nil ctx).
		s = enumerate.WithContext(opts.Ctx, s)
	}
	return s, nil
}

// openUL opens an Algorithm 1 session at `length` on the counting index
// over [lo, hi]: fresh, seeked to opts.SeekRank, or resumed from a
// decision, rank or frontier token. The token is decoded and its
// fingerprint checked before the index is resolved, so a forged or
// foreign token costs no build.
func (in *Instance) openUL(length, lo, hi int, opts CursorOptions, sopts enumerate.StreamOptions) (enumerate.Session, error) {
	c, f, err := in.parseToken(opts.Cursor, length, enumerate.KindUFA)
	if err != nil {
		return nil, err
	}
	idx, err := in.index(opts.Ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	var e *enumerate.UFAEnumerator
	if c.Kind != 0 {
		e, err = enumerate.ResumeUFA(idx, c)
	} else if e, err = enumerate.OpenUFA(idx, length); err == nil && opts.SeekRank != nil {
		err = e.SeekRank(opts.SeekRank)
	}
	if err != nil {
		return nil, err
	}
	return serve(e, f, opts, sopts)
}

// openNL opens a flashlight session at `length`: fresh, or resumed from a
// word or frontier token.
func (in *Instance) openNL(length int, opts CursorOptions, sopts enumerate.StreamOptions) (enumerate.Session, error) {
	if opts.SeekRank != nil {
		return nil, errRankNL
	}
	c, f, err := in.parseToken(opts.Cursor, length, enumerate.KindNFA)
	if err != nil {
		return nil, err
	}
	var e *enumerate.NFAEnumerator
	if c.Kind != 0 {
		e, err = enumerate.NewNFAFrom(in.n, c)
	} else {
		e, err = enumerate.NewNFA(in.n, length)
	}
	if err != nil {
		return nil, err
	}
	return serve(e, f, opts, sopts)
}

var errRankNL = errors.New("core: rank seek requires an unambiguous instance (RelationUL)")

// parseToken decodes a session token for a class whose cursor kind is
// kind: a frontier token into f, any other non-empty token into c (a rank
// cursor only for RelationUL); the other comes back zero, with Kind 0. The
// token's length, kind and fingerprint are checked against the instance
// before anything is built.
func (in *Instance) parseToken(token string, length int, kind byte) (c enumerate.Cursor, f enumerate.Frontier, err error) {
	if token == "" {
		return c, f, nil
	}
	frontier := enumerate.IsFrontierToken(token)
	if frontier {
		f, err = enumerate.ParseFrontier(token)
		// c carries the frontier's length and kind through the checks.
		c.Length, c.Kind = f.Length, f.Kind
	} else {
		c, err = enumerate.ParseToken(token)
	}
	switch {
	case err != nil:
	case c.Length != length:
		err = fmt.Errorf("core: cursor length %d does not match session length %d", c.Length, length)
	case c.Kind == enumerate.KindUFARank && kind == enumerate.KindNFA:
		err = errRankNL
	case c.Kind != kind && c.Kind != enumerate.KindUFARank:
		err = fmt.Errorf("core: cursor kind %q does not match instance class %s", c.Kind, in.class)
	case frontier:
		return enumerate.Cursor{}, f, enumerate.ValidateFrontier(in.n, f)
	default:
		err = enumerate.ValidateCursor(in.n, c)
	}
	return c, f, err
}

// enumerator is what serve needs of both enumerator types.
type enumerator interface {
	enumerate.Session
	Cursor() enumerate.Cursor
	Stream(enumerate.StreamOptions) *enumerate.Stream
	StreamFrom(enumerate.Frontier, enumerate.StreamOptions) (*enumerate.Stream, error)
	ResumeFrontier(enumerate.Frontier) (enumerate.Session, error)
}

// serve hands an opened enumerator the session opts ask for: a frontier
// token's cells (f, when its Kind is set) in parallel or one after
// another, the enumerator itself for a serial session, and otherwise a
// parallel stream over its whole range or, when it is positioned, over
// the suffix after its cursor.
func serve(e enumerator, f enumerate.Frontier, opts CursorOptions, sopts enumerate.StreamOptions) (enumerate.Session, error) {
	switch {
	case f.Kind != 0 && opts.Workers > 1:
		return e.StreamFrom(f, sopts)
	case f.Kind != 0:
		return e.ResumeFrontier(f)
	case opts.Workers <= 1:
		return e, nil
	case opts.Cursor == "" && opts.SeekRank == nil:
		return e.Stream(sopts), nil
	}
	return e.StreamFrom(enumerate.SuffixFrontier(e.Cursor()), sopts)
}

// EnumerateFrom is Enumerate resuming from a serialized token — the
// pagination entry point: enumerate a page, keep the token, reopen later.
func (in *Instance) EnumerateFrom(token string) (enumerate.Session, error) {
	return in.Enumerate(CursorOptions{Cursor: token})
}

// index resolves the counting index over [lo, hi] — [n, n] for the
// instance's own length — through the instance's compiled-index cache
// keyed by (canonical automaton, [lo, hi]): one index per range serves
// counts, ranks, draws and seeks, concurrent requests for the same range
// share one build, and retention is byte-budgeted LRU. On a miss the
// sweep runs detached; ctx cancels only this caller's wait, and the
// build is abandoned within one layer once no waiter remains
// (lengthrange.BuildCtx checks at every layer); a nil ctx never cancels.
// Admission (range span and estimated footprint) is enforced before the
// sweep allocates anything length-sized. RelationUL only: exact counting
// for an ambiguous NFA is #P-hard.
func (in *Instance) index(ctx context.Context, lo, hi int) (*lengthrange.RangeIndex, error) {
	if in.class != ClassUL {
		return nil, fmt.Errorf("core: ranged access over a length range requires an unambiguous instance (RelationUL)")
	}
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("core: bad length range [%d, %d]", lo, hi)
	}
	if err := in.opts.Limits.CheckRange(lo, hi); err != nil {
		return nil, err
	}
	est := admission.EstimateIndexBytes(in.n.NumStates(), in.n.NumTransitions(), hi)
	if err := in.opts.Limits.CheckIndexBytes(est); err != nil {
		return nil, err
	}
	workers := in.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ri, _, err := in.cache.RangeIndex(ctx, in.key(), lo, hi, est, func(bctx context.Context) (*lengthrange.RangeIndex, error) {
		return lengthrange.BuildCtx(bctx, in.n, lo, hi, workers)
	})
	return ri, err
}

// TotalRange returns |⋃_{n∈[lo,hi]} L_n| exactly, from the shared
// cross-length index. RelationUL only.
func (in *Instance) TotalRange(lo, hi int) (*big.Int, error) {
	return in.TotalRangeCtx(nil, lo, hi)
}

// TotalRangeCtx is TotalRange with cooperative cancellation: ctx is
// checked at every layer of the (lazy) cross-length index build; a nil
// ctx never cancels.
func (in *Instance) TotalRangeCtx(ctx context.Context, lo, hi int) (*big.Int, error) {
	ri, err := in.index(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	return ri.TotalRange(), nil
}

// RankRange returns the global 0-based index of the witness w in the
// length-lexicographic enumeration order over [lo, hi] (len(w) must lie
// in the range), or an error wrapping lengthrange.ErrNotMember when w is
// not a witness. RelationUL only.
func (in *Instance) RankRange(lo, hi int, w automata.Word) (*big.Int, error) {
	return in.RankRangeCtx(nil, lo, hi, w)
}

// RankRangeCtx is RankRange with cooperative cancellation: ctx is checked
// at every layer of the (lazy) cross-length index build; a nil ctx never
// cancels.
func (in *Instance) RankRangeCtx(ctx context.Context, lo, hi int, w automata.Word) (*big.Int, error) {
	ri, err := in.index(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	return ri.RankRange(w)
}

// UnrankRange returns the witness at the given global 0-based rank of
// the length-lexicographic order over [lo, hi] — random access into the
// union of all lengths. RelationUL only.
func (in *Instance) UnrankRange(lo, hi int, r *big.Int) (automata.Word, error) {
	return in.UnrankRangeCtx(nil, lo, hi, r)
}

// UnrankRangeCtx is UnrankRange with cooperative cancellation: ctx is
// checked at every layer of the (lazy) cross-length index build; a nil
// ctx never cancels.
func (in *Instance) UnrankRangeCtx(ctx context.Context, lo, hi int, r *big.Int) (automata.Word, error) {
	ri, err := in.index(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	return ri.UnrankRange(r)
}

// SampleRange draws one witness uniformly from the union of all lengths
// in [lo, hi] (each length selected with probability proportional to its
// exact count), consuming the instance's internal RNG stream like
// Sample. RelationUL only; ErrEmpty when the whole range is empty.
func (in *Instance) SampleRange(lo, hi int) (automata.Word, error) {
	ri, err := in.index(nil, lo, hi)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	w, err := ri.Sample(in.rngLocked())
	in.mu.Unlock()
	if err == lengthrange.ErrEmpty {
		return nil, ErrEmpty
	}
	return w, err
}

// SampleManyRange draws k independent uniform witnesses from the union
// of lengths in [lo, hi] across up to `workers` goroutines (0 selects
// Options.Workers, which itself defaults to GOMAXPROCS). Like
// SampleManyParallel, draws come from fixed-size chunks with
// seed-derived RNG streams, so the batch is a function of (Options, lo,
// hi, k) alone — bitwise identical for every worker count. RelationUL
// only.
func (in *Instance) SampleManyRange(lo, hi, k, workers int) ([]automata.Word, error) {
	return in.SampleManyRangeCtx(nil, lo, hi, k, workers)
}

// SampleManyRangeCtx is SampleManyRange with cooperative cancellation:
// ctx is checked at every layer of the (lazy) cross-length index build
// and between per-worker sample chunks, never inside a draw. A nil ctx
// never cancels; the batch contents are identical to SampleManyRange.
func (in *Instance) SampleManyRangeCtx(ctx context.Context, lo, hi, k, workers int) ([]automata.Word, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := in.opts.Limits.CheckSampleBatch(k); err != nil {
		return nil, err
	}
	ri, err := in.index(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = in.opts.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	ws, err := ri.SampleManyCtx(ctx, in.seed, streamULRange, k, workers)
	if err == lengthrange.ErrEmpty {
		return nil, ErrEmpty
	}
	return ws, err
}

// EnumerateRange opens a session over the union of all lengths n in
// [lo, hi], emitted in length-lexicographic order (all length-lo
// witnesses in the engine's order for that length, then lo+1, and so
// on) by chaining per-length sessions — each carrying the full engine
// contract, so Workers/Ordered/MergeBudget/StealThreshold parallelize
// every length under the work-stealing scheduler. Both classes
// enumerate; RelationUL sessions additionally support
// CursorOptions.SeekRank as a GLOBAL rank into the whole range (resolved
// through the shared cross-length index). Every session is resumable:
// Token mints an el1:R: envelope around the in-flight per-length token,
// and CursorOptions.Cursor accepts it back — the token's range must
// equal the requested [lo, hi], and both the envelope and the inner
// token are fingerprint-validated before any length-sized
// precomputation.
func (in *Instance) EnumerateRange(lo, hi int, opts CursorOptions) (enumerate.Session, error) {
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("core: bad length range [%d, %d]", lo, hi)
	}
	if err := in.opts.Limits.CheckRange(lo, hi); err != nil {
		return nil, err
	}
	fp := enumerate.Fingerprint(in.n)
	// Every per-length RelationUL session opens on the range's index, so
	// the whole chain — and a global seek — shares one [lo, hi] build.
	factory := func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		return in.openSessionAt(length, lo, hi, CursorOptions{
			Ctx:            opts.Ctx,
			Cursor:         cursor,
			SeekRank:       seek,
			Workers:        opts.Workers,
			Shards:         opts.Shards,
			Ordered:        opts.Ordered,
			MergeBudget:    opts.MergeBudget,
			StealThreshold: opts.StealThreshold,
		})
	}
	var s enumerate.Session
	var err error
	switch {
	case opts.SeekRank != nil && opts.Cursor != "":
		return nil, fmt.Errorf("core: SeekRank and Cursor are mutually exclusive")
	case opts.SeekRank != nil:
		ri, rerr := in.index(opts.Ctx, lo, hi)
		if rerr != nil {
			return nil, rerr
		}
		grand := ri.TotalRange()
		r := opts.SeekRank
		if r.Sign() < 0 || r.Cmp(grand) > 0 {
			return nil, fmt.Errorf("core: seek rank %v out of range [0, %v]", r, grand)
		}
		if r.Cmp(grand) == 0 {
			s = enumerate.ExhaustedRangeSession(lo, hi, fp)
		} else {
			n, within, serr := ri.SplitRank(r)
			if serr != nil {
				return nil, serr
			}
			s, err = enumerate.NewRangeSessionAt(lo, hi, n, within, fp, factory)
		}
	case opts.Cursor != "":
		c, perr := enumerate.ParseRangeToken(opts.Cursor)
		if perr != nil {
			return nil, perr
		}
		if c.Lo != lo || c.Hi != hi {
			return nil, fmt.Errorf("core: cursor range [%d, %d] does not match requested range [%d, %d]", c.Lo, c.Hi, lo, hi)
		}
		s, err = enumerate.ResumeRangeSession(c, fp, factory)
	default:
		s, err = enumerate.NewRangeSession(lo, hi, fp, factory)
	}
	if err != nil {
		return nil, err
	}
	// The chain checks opts.Ctx (and the lengthrange.session.advance fault
	// site) at every length-advance boundary; per-length inner sessions
	// already carry the context through the factory, so cancellation stops
	// the session within one delivery batch wherever it lands.
	if rs, ok := s.(*enumerate.RangeSession); ok {
		rs.SetContext(opts.Ctx)
	}
	if opts.Limit > 0 {
		s = &limitedSession{Session: s, left: opts.Limit}
	}
	return s, nil
}

// EnumerateRangeFrom is EnumerateRange resuming from an el1:R: token,
// taking the length range from the token itself (after its fingerprint
// is validated against the instance's automaton); opts tunes the session
// like EnumerateRange (opts.Cursor is replaced by the token, and a
// non-nil SeekRank is rejected as mutually exclusive, exactly as on the
// single-length path). Services resuming fully untrusted tokens should
// prefer EnumerateRange with their own [lo, hi] bound — the fingerprint
// is a checksum, not a MAC.
func (in *Instance) EnumerateRangeFrom(token string, opts CursorOptions) (enumerate.Session, error) {
	c, err := enumerate.ParseRangeToken(token)
	if err != nil {
		return nil, err
	}
	opts.Cursor = token
	return in.EnumerateRange(c.Lo, c.Hi, opts)
}

// limitedSession caps a session's output count, forwarding everything else.
type limitedSession struct {
	enumerate.Session
	left int
}

func (l *limitedSession) Next() (automata.Word, bool) {
	if l.left <= 0 {
		return nil, false
	}
	w, ok := l.Session.Next()
	if ok {
		l.left--
	}
	return w, ok
}

// Unwrap exposes the underlying session so enumerate.SessionStats can reach
// the scheduler statistics of a wrapped parallel stream.
func (l *limitedSession) Unwrap() enumerate.Session { return l.Session }

// Witnesses drains a fresh session into formatted strings (limit ≤ 0 means
// all) — a convenience for examples and CLIs.
func (in *Instance) Witnesses(limit int) ([]string, error) {
	s, err := in.Enumerate(CursorOptions{Limit: limit})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := enumerate.Collect(in.n.Alphabet(), s, limit)
	return out, s.Err()
}

// Sample draws one uniform witness: exact uniform for ClassUL, the Las
// Vegas generator (with retries) for ClassNL. ErrEmpty signals an empty
// witness set. Safe for concurrent use; draws serialize on the internal
// RNG, so batch callers should prefer SampleManyParallel.
func (in *Instance) Sample() (automata.Word, error) {
	if in.class == ClassUL {
		ri, err := in.index(nil, in.length, in.length)
		if err != nil {
			return nil, err
		}
		in.mu.Lock()
		w, err := ri.Sample(in.rngLocked())
		in.mu.Unlock()
		if err == lengthrange.ErrEmpty {
			return nil, ErrEmpty
		}
		return w, err
	}
	est, err := in.estimator()
	if err != nil {
		return nil, err
	}
	w, err := est.SampleWitness(0)
	if err == fpras.ErrEmpty {
		return nil, ErrEmpty
	}
	if err != nil {
		return nil, err
	}
	if enc := in.encoding(); enc != nil {
		return enc.DecodeWord(w)
	}
	return w, nil
}

// encoding returns the instance's binary re-encoding (nil when the source
// alphabet is already binary). It is built together with the estimator, so
// callers must run estimator() first.
func (in *Instance) encoding() *automata.BinaryEncoding {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.enc
}

// SampleMany draws k independent uniform witnesses sequentially from the
// instance's internal RNG stream.
func (in *Instance) SampleMany(k int) ([]automata.Word, error) {
	if err := in.opts.Limits.CheckSampleBatch(k); err != nil {
		return nil, err
	}
	out := make([]automata.Word, 0, k)
	for i := 0; i < k; i++ {
		w, err := in.Sample()
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// SampleManyParallel draws k independent uniform witnesses across up to
// `workers` goroutines (0 selects Options.Workers, which itself defaults to
// GOMAXPROCS). Draws come from fixed-size chunks with seed-derived RNG
// streams, so the batch is a function of (Options, k) alone — bitwise
// identical for every worker count — and differs from the stream
// SampleMany consumes.
func (in *Instance) SampleManyParallel(k, workers int) ([]automata.Word, error) {
	return in.SampleManyParallelCtx(nil, k, workers)
}

// SampleManyParallelCtx is SampleManyParallel with cooperative
// cancellation: ctx is checked at every layer of any (lazy) index or
// estimator build it triggers and between per-worker sample chunks (on
// RelationNL, between per-witness Las Vegas draws), never inside a draw —
// so the hot path is untouched and a cancelled batch stops within one
// chunk. A nil ctx never cancels; the batch contents are identical to
// SampleManyParallel.
func (in *Instance) SampleManyParallelCtx(ctx context.Context, k, workers int) ([]automata.Word, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := in.opts.Limits.CheckSampleBatch(k); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = in.opts.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	if in.class != ClassUL {
		est, err := in.estimatorCtx(ctx)
		if err != nil {
			return nil, err
		}
		ws, err := est.SampleNCtx(ctx, k, workers)
		if err == fpras.ErrEmpty {
			return nil, ErrEmpty
		}
		if err != nil {
			return nil, err
		}
		enc := in.encoding()
		if enc == nil {
			return ws, nil
		}
		out := make([]automata.Word, k)
		for i, w := range ws {
			dec, err := enc.DecodeWord(w)
			if err != nil {
				return nil, err
			}
			out[i] = dec
		}
		return out, nil
	}
	ri, err := in.index(ctx, in.length, in.length)
	if err != nil {
		return nil, err
	}
	// The draws only read the frozen counting index, so SampleMany fans
	// chunked draw sessions across the workers — each chunk's RNG stream
	// derives from (seed, chunk), so the batch never depends on the worker
	// count.
	ws, err := ri.SampleManyCtx(ctx, in.seed, streamULBatch, k, workers)
	if err == lengthrange.ErrEmpty {
		return nil, ErrEmpty
	}
	return ws, err
}

// FormatWord renders a witness with the instance's alphabet.
func (in *Instance) FormatWord(w automata.Word) string {
	return in.n.Alphabet().FormatWord(w)
}
