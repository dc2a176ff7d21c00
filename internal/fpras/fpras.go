// Package fpras implements the paper's central result (Theorem 22): a fully
// polynomial-time randomized approximation scheme for #NFA — counting the
// words of length n accepted by an NFA over {0,1} — together with the
// polynomial-time Las Vegas uniform generator it induces (Corollary 23).
//
// The structure follows Algorithms 2–5 of §6 exactly:
//
//   - The automaton is unrolled into the layered DAG N_unroll
//     (internal/unroll), forward-pruned (Algorithm 5 step 3).
//
//   - For every vertex s, processed layer by layer, the estimator keeps a
//     pair (R(s), X(s)): R(s) approximates |U(s)|, the number of distinct
//     strings labelling s_start→s paths, and X(s) is a multiset of
//     (ideally) uniform samples of U(s) acting as a sketch of that set.
//
//   - While witness sets are small (|U(s)| ≤ k) they are materialized
//     exactly and the vertex is "exactly handled" (step 4).
//
//   - Otherwise R(s) is estimated from the predecessor sketches via the
//     first-occurrence union decomposition with the fixed order ≺
//     (step 5a), and X(s) is filled by the rejection sampler Sample
//     (Algorithm 4), which walks predecessor sets T^t backwards choosing
//     each bit with probability proportional to the sketch-estimated
//     partition sizes W̃, and finally accepts with probability
//     ϕ = (e⁻⁴/R(s)) / Π p_b, making accepted outputs exactly uniform on
//     U(s) (Proposition 18).
//
// The count returned is R(s_final) and the PLVUG samples U(s_final)
// (stripping the trailing marker bit of Remark 1).
//
// # Concurrency
//
// The sketch construction is parallel: within one unrolling layer every
// buildVertex call depends only on the (frozen) previous layer, so New fans
// the per-vertex work of each layer across Params.Workers goroutines — the
// polynomial-many independent subproblems view of Capelli–Strozecki. Every
// vertex draws from its own PRNG stream derived from (Seed, layer, state),
// so the result is bitwise identical for any worker count, including 1.
//
// Algorithm 4's descents dominate both the build (K accepted samples per
// estimated vertex, ≈ e⁴ attempts each) and sampling. A descent step costs
// one RNG draw, one float64 compare, one subtraction and one pointer hop:
// the step for a vertex set is memoized as a stepChoice holding the float64
// split W̃₁/(W̃₀+W̃₁) and the logs of both branch probabilities, computed
// once when the step is first built, plus links to the two successor
// steps. The shared memo table is consulted only when a link is still
// empty. Precomputing changes no output bit: a split is the big.Float
// quotient at the estimator's precision rounded to float64, and the logs
// are math.Log of that float64, whenever they are computed, so every value
// a descent uses is the one a per-step computation would produce.
//
// After New returns the Estimator is immutable apart from the memo table
// (guarded by sharded locks), the successor links (atomic pointers) and
// the convenience RNG used by Sample (guarded by a mutex): Count, Sample,
// SampleWitness, SampleWith and SampleN are all safe for concurrent use.
// Concurrent descents fill links racily but benignly: every writer stores
// the memo's single winning entry for the successor set, and even a loser's
// entry holds the same values, so no race can change a draw. SampleWith
// with distinct RNGs, or SampleN with workers > 1, is the way to sample
// with real parallelism; Sample serializes on the internal RNG.
//
// Parameterization. The paper fixes k = ⌈(nm/δ)^64⌉ samples per sketch and
// ⌈(nm/δ)^4⌉ retries purely to make the union bounds in the proof sum to
// the advertised 3/4 success probability; those constants are astronomically
// infeasible (the authors say as much in their concluding remarks). Params
// exposes k and the retry budget; the defaults scale like (n/δ)·polylog and
// give empirical error well inside δ on the evaluation families (experiment
// E4 of the internal/bench registry: `benchtab -only E4`). The algorithm is
// otherwise unmodified.
package fpras

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/unroll"
)

// ErrFail is the Las Vegas failure answer of the generator: no sample was
// produced within the attempt budget. Callers simply retry; Corollary 23
// bounds the failure probability of a single properly-parameterized attempt
// by a constant < 1.
var ErrFail = errors.New("fpras: sampling attempt failed (Las Vegas reject)")

// ErrEmpty is returned when L_n(N) = ∅, the generator's ⊥ answer.
var ErrEmpty = errors.New("fpras: witness set is empty")

// Params tune the estimator.
type Params struct {
	// K is the sketch size (samples per vertex). 0 selects the default
	// max(96, min(1024, ⌈8·n/δ⌉)).
	K int
	// MaxTries bounds the rejection-sampling attempts per needed sample
	// (Algorithm 5 step 5(c)ii). 0 selects 64·⌈1/ϕ-scale⌉ ≈ 6000, far above
	// the e⁻⁵ acceptance floor of Proposition 18.
	MaxTries int
	// Delta is the target relative error used only to pick K's default.
	Delta float64
	// Seed seeds the per-vertex PRNG streams; 0 uses a fixed default (runs
	// are then deterministic, which the tests rely on). The estimate depends
	// on Seed and K only — never on Workers or goroutine scheduling.
	Seed int64
	// Workers bounds the goroutines used by the layer-parallel sketch
	// construction (and is the default parallelism of SampleN). 0 selects
	// GOMAXPROCS; 1 builds serially.
	Workers int
	// Ctx, when non-nil, cancels the sketch construction cooperatively:
	// it is checked at every layer barrier of the build (the faultinject
	// fpras.build.layer site), so an abandoned New stops within one
	// layer's work and releases its partial sketches. The per-vertex hot
	// loops are untouched; a completed build never depends on Ctx.
	Ctx context.Context
	// SkipRejection disables the Jerrum–Valiant–Vazirani rejection
	// correction (Algorithm 4 step 1/2): descents are accepted
	// unconditionally, so samples follow the raw product of estimated
	// partition ratios instead of the exactly uniform distribution. This
	// is the ablation of experiment E13 — it shows why the paper insists
	// on a PLVUG rather than an almost-uniform generator: without the
	// correction, sketch error leaks into the output distribution and
	// compounds across layers.
	SkipRejection bool
}

func (p Params) withDefaults(n int) Params {
	if p.Delta <= 0 || p.Delta >= 1 {
		p.Delta = 0.1
	}
	if p.K <= 0 {
		k := int(math.Ceil(8 * float64(n+1) / p.Delta))
		if k < 96 {
			k = 96
		}
		if k > 1024 {
			k = 1024
		}
		p.K = k
	}
	if p.MaxTries <= 0 {
		p.MaxTries = 6000
	}
	if p.Seed == 0 {
		p.Seed = 0x5eed
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// PRNG stream derivation: every independent consumer of randomness gets its
// own rand.Rand from par.StreamRNG(Seed, stream, a, b), so estimates and
// SampleN outputs are functions of Params alone, never of scheduling.
const (
	streamBuild    = 0xB11D // sketch construction: (layer, state)
	streamSampleN  = 0x5A9E // SampleN: (index, 0)
	streamInternal = 0x1D1E // the Estimator's own Sample RNG: (0, 0)
)

// sampleEntry is one sketch element: the sampled string and the set of
// layer-|bits| states whose U-set contains it. All of Algorithm 4/5's
// membership queries "x ∈ U(s')" concern vertices in the same layer as
// |x|, so one bit set per sample answers them all in O(1). Entries are
// frozen once their vertex is built; the reach sets are never mutated
// afterwards, so concurrent readers need no synchronization.
type sampleEntry struct {
	bits  string // '0'/'1' bytes, length = layer of the owning vertex
	reach *bitset.Set
}

// vertexData holds (R, X) for one vertex of N_unroll.
type vertexData struct {
	exact   bool
	r       *big.Float // R(s); for exact vertices this equals |U(s)| exactly
	entries []sampleEntry
}

// Estimator is the built FPRAS state for one (N, 0^n) instance: after New
// returns, Count is O(1) and Sample is one Las Vegas attempt. See the
// package comment for which methods are safe for concurrent use.
type Estimator struct {
	dag    *unroll.DAG
	params Params
	prec   uint

	// data[t][q] for layers 1..n; finalData is s_final. Frozen after build.
	data      [][]*vertexData
	finalData *vertexData

	// finalReach is the shared placeholder reach set for strings owned by
	// s_final (layer N+1): no membership query ever inspects it, and it is
	// never mutated, so one instance serves every entry.
	finalReach *bitset.Set

	// memo caches descent steps keyed by (layer, T): Sample revisits the
	// same suffix sets constantly and the sketches are frozen per layer
	// once built, so memoization is exact, not an approximation. The table
	// is per-layer (sharded within each layer, so locks stay off the
	// parallel build path) and frozen layers are dropped as the build
	// advances; see the memoTable comment.
	memo memoTable

	// finalStep is the descent root for s_final and finalLogPhi0 its
	// log ϕ₀ = −4 − log R(s_final), set by build when s_final is
	// estimated: every post-build attempt starts from them.
	finalStep    *stepChoice
	finalLogPhi0 float64

	// samplers recycles per-goroutine scratch state across Sample calls.
	samplers sync.Pool

	// rng backs the convenience methods Sample/SampleWitness; mu serializes
	// it. Parallel callers should prefer SampleWith or SampleN.
	mu  sync.Mutex
	rng *rand.Rand // guarded by mu

	empty bool
}

// stepChoice is one memoized step of Algorithm 4 for a vertex set T at
// layer t: the predecessor sets T₀, T₁ the two bits lead to and the split
// between them. p1 = W̃₁/(W̃₀+W̃₁) is computed once, in big.Float at the
// estimator's precision, and rounded to float64; logP holds
// math.Log(1−p1) and math.Log(p1), the amounts a step on bit 0 or 1
// subtracts from log ϕ. The W̃ weights themselves are not kept. A step is
// immutable once published in the memo table, apart from next.
type stepChoice struct {
	t0, t1 []int // sorted predecessor states (layer t-1); -1 encodes s_start
	p1     float64
	logP   [2]float64
	// dead marks W̃₀+W̃₁ ≤ 0: no descent can continue from T.
	dead bool
	// next[b] links to the step for T_b at layer t−1, filled on first use
	// with the memo's entry for T_b, so a descent walks links and consults
	// the memo only on a miss. Racing fills store the same winning entry.
	next [2]atomic.Pointer[stepChoice]
}

// memoTable keeps one sharded hash map per unrolling layer, from vertex-set
// keys to *stepChoice. Keys are hashed to a uint64; buckets keep the full
// key for equality, so hash collisions cost a comparison, never a wrong
// answer. Values are deterministic functions of the frozen sketches, so two
// goroutines racing to insert the same key compute identical entries; put
// keeps the first and returns it to both, and the successor links copy
// that winner, so every descent through T shares one entry (and one set of
// links) no matter which goroutine built it. Since the links are the fast
// path, a descent touches a shard lock only for a set whose link is still
// empty — the shards' reader counts stay off the per-step path, where
// build workers on different cores would contend for their cache lines.
//
// Per-layer tables serve two purposes: the layer index drops out of the key
// (and shard contention splits across layers), and — the memory point of
// the ROADMAP memo item — a layer's entries can be dropped wholesale once
// buildLayer's barrier passes. The build clears the whole table after every
// layer: within one layer the K·MaxTries descents of each vertex revisit
// the same suffix sets constantly (the reuse that matters), while
// cross-layer reuse is sparse and not worth pinning the table's full
// footprint for the whole build. Links never outlive this: they point from
// a layer-t step to layer t−1, so dropping layers ≤ t leaves nothing that
// references a dropped step. The entries populated by the final s_final
// vertex are kept: they are exactly the sets the post-build Sample
// descents walk, and Sample repopulates lazily anyway.
type memoTable struct {
	layers []*memoLayer
}

type memoLayer struct {
	shards [memoShards]memoShard
}

const memoShards = 16

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64][]*memoEntry // guarded by mu
}

type memoEntry struct {
	cur []int
	ch  *stepChoice
}

func memoHash(cur []int) uint64 {
	h := par.Mix64(0x243f6a8885a308d3)
	for _, v := range cur {
		h = par.Mix64(h ^ uint64(int64(v)+0x13198a2e03707344))
	}
	return h
}

// init sizes the table for layers 1..n+1 (s_final descends from n+1).
func (m *memoTable) init(n int) {
	m.layers = make([]*memoLayer, n+2)
	for i := range m.layers {
		m.layers[i] = &memoLayer{}
	}
}

// dropThrough discards every entry at layers ≤ t. Only called between
// build barriers, when no sampler goroutine is in flight.
func (m *memoTable) dropThrough(t int) {
	for i := 1; i <= t && i < len(m.layers); i++ {
		m.layers[i] = &memoLayer{}
	}
}

func (m *memoTable) get(h uint64, layer int, cur []int) *stepChoice {
	sh := &m.layers[layer].shards[h%memoShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, e := range sh.m[h] {
		if slices.Equal(e.cur, cur) {
			return e.ch
		}
	}
	return nil
}

// put publishes ch for cur unless another goroutine got there first, and
// returns the entry the table keeps: ch, or the identical earlier winner.
func (m *memoTable) put(h uint64, layer int, cur []int, ch *stepChoice) *stepChoice {
	sh := &m.layers[layer].shards[h%memoShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*memoEntry)
	}
	for _, e := range sh.m[h] {
		if slices.Equal(e.cur, cur) {
			return e.ch // lost a benign race; the entries are identical
		}
	}
	sh.m[h] = append(sh.m[h], &memoEntry{cur: cur, ch: ch})
	return ch
}

// New builds the full FPRAS state: DAG construction plus the layer-by-layer
// sketch computation of Algorithm 5, parallelized across Params.Workers
// goroutines within each layer. The automaton must be ε-free over a
// two-symbol alphabet (use automata.BinaryEncode for larger alphabets).
func New(n *automata.NFA, length int, params Params) (*Estimator, error) {
	if n.Alphabet().Size() != 2 {
		return nil, fmt.Errorf("fpras: alphabet size %d; binary-encode first", n.Alphabet().Size())
	}
	if n.HasEpsilon() {
		return nil, fmt.Errorf("fpras: automaton has ε-transitions")
	}
	if length < 0 {
		return nil, fmt.Errorf("fpras: negative length %d", length)
	}
	params = params.withDefaults(length)
	if err := faultinject.Check(params.Ctx, faultinject.SiteFprasLayer); err != nil {
		return nil, err
	}
	dag, err := unroll.Build(n, length, unroll.Options{})
	if err != nil {
		return nil, err
	}
	e := &Estimator{
		dag:        dag,
		params:     params,
		rng:        par.StreamRNG(params.Seed, streamInternal, 0, 0),
		prec:       uint(64 + length),
		finalReach: bitset.New(1),
	}
	e.samplers.New = func() any { return e.newSampler() }
	if dag.Empty() {
		e.empty = true
		return e, nil
	}
	e.memo.init(length)
	e.data = make([][]*vertexData, length+1)
	for t := 1; t <= length; t++ {
		e.data[t] = make([]*vertexData, dag.M)
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	return e, nil
}

// Count returns the estimate R(s_final) of |L_n(N)| as a big.Float.
func (e *Estimator) Count() *big.Float {
	if e.empty {
		return big.NewFloat(0)
	}
	return new(big.Float).SetPrec(e.prec).Set(e.finalData.r)
}

// CountInt returns the estimate rounded to the nearest integer.
func (e *Estimator) CountInt() *big.Int {
	c := e.Count()
	half := big.NewFloat(0.5)
	c.Add(c, half)
	out, _ := c.Int(nil)
	return out
}

// Exact reports whether s_final was exactly handled, in which case Count is
// the exact |L_n(N)| and Sample never fails.
func (e *Estimator) Exact() bool {
	return e.empty || e.finalData.exact
}

// K returns the effective sketch size in use.
func (e *Estimator) K() int { return e.params.K }

// Workers returns the effective build/sampling parallelism in use.
func (e *Estimator) Workers() int { return e.params.Workers }

// build runs steps 4–5 of Algorithm 5 over all layers and then s_final.
// Layers are sequential (layer t reads the frozen sketches of layer t−1);
// the vertices within a layer are independent and built in parallel.
func (e *Estimator) build() error {
	n := e.dag.N
	for t := 1; t <= n; t++ {
		if err := faultinject.Check(e.params.Ctx, faultinject.SiteFprasLayer); err != nil {
			return err
		}
		if err := e.buildLayer(t, e.dag.AliveSet(t).Elems()); err != nil {
			return err
		}
		// The layer is frozen; drop the memo entries its build populated
		// (all at layers ≤ t). Later layers repopulate what they revisit,
		// so peak memo memory is one layer-build's worth, not the whole
		// build's (see the memoTable comment).
		e.memo.dropThrough(t)
	}
	if err := faultinject.Check(e.params.Ctx, faultinject.SiteFprasLayer); err != nil {
		return err
	}
	s := e.getSampler(par.StreamRNG(e.params.Seed, streamBuild, n+1, -1))
	defer e.putSampler(s)
	vd, err := s.buildVertex(n+1, -1, e.dag.FinalPreds())
	if err != nil {
		return err
	}
	e.finalData = vd
	if !vd.exact {
		// A memo hit: the s_final build just published this step.
		e.finalStep = s.choiceFor(n+1, finalTarget)
		e.finalLogPhi0 = logPhi0(vd.r)
	}
	return nil
}

// buildLayer fans the buildVertex calls of one layer across the worker
// budget. Each vertex uses its own (Seed, layer, state)-derived RNG stream
// and writes a distinct slot of e.data[t], so scheduling never changes the
// result; the ForEachIndexed barrier publishes the layer to its successors.
func (e *Estimator) buildLayer(t int, states []int) error {
	errs := make([]error, len(states))
	var failed atomic.Bool
	par.ForEachIndexed(len(states), e.params.Workers, func(i int) {
		if failed.Load() {
			return
		}
		q := states[i]
		s := e.getSampler(par.StreamRNG(e.params.Seed, streamBuild, t, q))
		defer e.putSampler(s)
		vd, err := s.buildVertex(t, q, e.dag.Preds(t, q))
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		e.data[t][q] = vd
	})
	// Surface the lowest-indexed *recorded* error. Every recorded error is
	// real, but which vertices were still attempted after the abort flag
	// tripped is scheduling-dependent, so the reported error (not the
	// failure itself) may vary between runs.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sampler bundles the per-goroutine mutable state of the build and sampling
// inner loops: the RNG stream, big.Float scratch registers, and reusable
// bit sets. One sampler must never be shared between goroutines; Estimator
// keeps a pool of them.
type sampler struct {
	e   *Estimator
	rng *rand.Rand

	// big.Float scratch, preallocated at the estimator's precision: fW
	// holds a step's W̃₀, W̃₁ while its split is computed.
	fSum, fA, fB *big.Float
	fW           [2]*big.Float

	// before is estimateUnion's running predecessor union.
	before *bitset.Set
	// trace[0], trace[1] are traceReach's ping-pong intermediates.
	trace [2]*bitset.Set
	// bits is sampleAttempt's descent buffer.
	bits []byte
}

func (e *Estimator) newSampler() *sampler {
	m := 1
	if e.dag != nil {
		m = e.dag.M
	}
	return &sampler{
		e:      e,
		fSum:   new(big.Float).SetPrec(e.prec),
		fA:     new(big.Float).SetPrec(e.prec),
		fB:     new(big.Float).SetPrec(e.prec),
		fW:     [2]*big.Float{new(big.Float).SetPrec(e.prec), new(big.Float).SetPrec(e.prec)},
		before: bitset.New(m),
		trace:  [2]*bitset.Set{bitset.New(m), bitset.New(m)},
	}
}

func (e *Estimator) getSampler(rng *rand.Rand) *sampler {
	s := e.samplers.Get().(*sampler)
	s.rng = rng
	return s
}

func (e *Estimator) putSampler(s *sampler) {
	s.rng = nil
	e.samplers.Put(s)
}

// buildVertex computes (R, X) for one vertex with the given incoming edges.
func (s *sampler) buildVertex(layer, state int, preds []unroll.Edge) (*vertexData, error) {
	e := s.e
	// Partition predecessors by symbol, keeping ≺ (state-index) order; the
	// unroll package emits them ordered already, but we do not rely on it.
	t0, t1 := splitPreds(preds)

	// Exactly-handled path (Algorithm 5 step 4): requires every predecessor
	// exactly handled.
	if e.predsExact(layer, t0) && e.predsExact(layer, t1) {
		entries, within := s.exactUnion(layer, t0, t1)
		if within {
			r := new(big.Float).SetPrec(e.prec).SetInt64(int64(len(entries)))
			return &vertexData{exact: true, r: r, entries: entries}, nil
		}
	}

	// Estimated path (step 5).
	w0 := s.estimateUnion(s.fW[0], layer, t0)
	w1 := s.estimateUnion(s.fW[1], layer, t1)
	r := new(big.Float).SetPrec(e.prec).Add(w0, w1)
	if r.Sign() <= 0 {
		return nil, fmt.Errorf("fpras: estimate collapsed to 0 at layer %d state %d (increase K)", layer, state)
	}
	vd := &vertexData{r: r}
	vd.entries = make([]sampleEntry, 0, e.params.K)
	root := s.choiceFor(layer, []int{state})
	phi0 := logPhi0(r)
	for len(vd.entries) < e.params.K {
		entry, err := s.sampleOnce(layer, root, phi0)
		if err != nil {
			return nil, err
		}
		vd.entries = append(vd.entries, entry)
	}
	return vd, nil
}

func splitPreds(preds []unroll.Edge) (t0, t1 []int) {
	for _, p := range preds {
		if p.Symbol == 0 {
			t0 = append(t0, p.FromState)
		} else {
			t1 = append(t1, p.FromState)
		}
	}
	return t0, t1
}

// predsExact reports whether every predecessor in list (states of layer-1,
// or -1 for s_start) is exactly handled.
func (e *Estimator) predsExact(layer int, list []int) bool {
	for _, q := range list {
		if q == -1 {
			continue // s_start is trivially exact: U = {ε}
		}
		vd := e.data[layer-1][q]
		if vd == nil || !vd.exact {
			return false
		}
	}
	return true
}

// exactUnion materializes U(s) = ⋃_b ⋃_{s'∈T_b} { x∘b : x ∈ U(s') },
// deduplicated, as long as it stays within k elements. The reach set of
// x∘b is one DAG step from the reach set of x.
//
// Every candidate is a predecessor string extended by one bit, so it is
// never built as its own string: dedup compares (parent, bit) pairs
// against arena bytes, retained strings are appended to one byte arena of
// exactly k·layer capacity, and a single string(arena) conversion at the
// end backs all of them. That is one allocation per materialized vertex
// where the old map[string]bool code paid one string per witness (the
// ROADMAP "byte-arena" item; see the Performance table for the delta).
func (s *sampler) exactUnion(layer int, t0, t1 []int) ([]sampleEntry, bool) {
	e := s.e
	k := e.params.K
	// Tight capacity: candidates are one extension per predecessor sketch
	// element, and at most k entries are retained.
	bound := 0
	for _, list := range [][]int{t0, t1} {
		for _, q := range list {
			if q == -1 {
				bound++
			} else {
				bound += len(e.data[layer-1][q].entries)
			}
		}
	}
	if bound > k {
		bound = k
	}
	arena := make([]byte, 0, bound*layer)
	offs := make([]int32, 0, bound)
	reaches := make([]*bitset.Set, 0, bound)
	// Dedup index: head maps a candidate hash to the most recent entry
	// with that hash, next chains older ones — scalar map values and one
	// chain array, so inserts never allocate per entry. Collisions cost a
	// byte comparison, never a wrong answer.
	head := make(map[uint64]int32, bound)
	next := make([]int32, 0, bound)
	const fnvOffset, fnvPrime = uint64(0xcbf29ce484222325), uint64(0x100000001b3)
	for b, list := range [][]int{t0, t1} {
		bit := byte('0' + b)
		for _, q := range list {
			var entries []sampleEntry
			if q != -1 {
				entries = e.data[layer-1][q].entries
			} else {
				// Predecessor is s_start: one candidate, the single bit
				// itself (parent is ε), handled as a one-element list below.
				entries = []sampleEntry{{}}
			}
			for _, entry := range entries {
				parent := entry.bits
				h := fnvOffset
				for i := 0; i < len(parent); i++ {
					h = (h ^ uint64(parent[i])) * fnvPrime
				}
				h = (h ^ uint64(bit)) * fnvPrime
				dup := false
				chainHead, ok := head[h]
				if !ok {
					chainHead = -1
				}
				for idx := chainHead; idx >= 0; idx = next[idx] {
					got := arena[offs[idx] : int(offs[idx])+layer]
					if got[layer-1] == bit && string(got[:layer-1]) == parent {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if len(offs) >= k {
					return nil, false
				}
				head[h] = int32(len(offs))
				next = append(next, chainHead)
				offs = append(offs, int32(len(arena)))
				arena = append(arena, parent...)
				arena = append(arena, bit)
				var src *bitset.Set
				if q != -1 {
					src = entry.reach
				}
				reaches = append(reaches, s.stepReach(src, automata.Symbol(b), layer))
			}
		}
	}
	// One conversion backs every retained string: substrings of a Go
	// string share its bytes.
	str := string(arena)
	out := make([]sampleEntry, len(offs))
	for i, off := range offs {
		out[i] = sampleEntry{bits: str[off : int(off)+layer], reach: reaches[i]}
	}
	return out, true
}

// stepReachInto advances a reach set one layer on symbol b, writing into
// dst (which is cleared first). A nil src means the singleton {s_start}.
func (s *sampler) stepReachInto(dst, src *bitset.Set, b automata.Symbol, layer int) {
	e := s.e
	dst.Clear()
	if src == nil {
		for _, p := range e.dag.Src.Successors(e.dag.Src.Start(), b) {
			if e.dag.Alive(layer, p) {
				dst.Add(p)
			}
		}
		return
	}
	src.ForEach(func(q int) {
		for _, p := range e.dag.Src.Successors(q, b) {
			if e.dag.Alive(layer, p) {
				dst.Add(p)
			}
		}
	})
}

// stepReach is stepReachInto with a freshly allocated (retained) result.
// For the final layer (layer == N+1) the reach set is the singleton
// {s_final}, which no later query ever inspects, so the shared empty
// placeholder is returned.
func (s *sampler) stepReach(src *bitset.Set, b automata.Symbol, layer int) *bitset.Set {
	if layer == s.e.dag.N+1 {
		return s.e.finalReach
	}
	dst := bitset.New(s.e.dag.M)
	s.stepReachInto(dst, src, b, layer)
	return dst
}

// estimateUnion computes W̃ for one predecessor list (step 5(a)):
//
//	W̃ = Σ_{s'∈T} R(s') · |{x ∈ X(s') : x ∉ U(s'') for all s''∈T, s''≺s'}| / |X(s')|
//
// where membership is answered by the per-sample reach sets. The -1
// (s_start) pseudo-predecessor contributes exactly 1 (its witness set is
// {ε}). The sum is written to total (a scratch register at the estimator's
// precision, overwritten) and returned; intermediates live in fA and fB.
func (s *sampler) estimateUnion(total *big.Float, layer int, list []int) *big.Float {
	e := s.e
	total.SetInt64(0)
	if len(list) == 0 {
		return total
	}
	before := s.before
	before.Clear()
	for _, q := range list {
		if q == -1 {
			total.Add(total, s.fA.SetInt64(1))
			continue
		}
		vd := e.data[layer-1][q]
		fresh := 0
		for _, entry := range vd.entries {
			if !entry.reach.Intersects(before) {
				fresh++
			}
		}
		if fresh > 0 && len(vd.entries) > 0 {
			// total += R(s') · fresh/|X(s')| without allocating.
			s.fA.SetInt64(int64(fresh))
			s.fB.SetInt64(int64(len(vd.entries)))
			s.fA.Quo(s.fA, s.fB)
			s.fA.Mul(s.fA, vd.r)
			total.Add(total, s.fA)
		}
		before.Add(q)
	}
	return total
}

// sampleOnce obtains one uniform element of U(s) for the vertex at the
// given layer, retrying the rejection sampler up to MaxTries times
// (Algorithm 5 step 5(c)). root is the vertex's descent step and phi0 its
// log ϕ₀ (see logPhi0). For exactly handled vertices callers should sample
// the materialized set directly instead.
func (s *sampler) sampleOnce(layer int, root *stepChoice, phi0 float64) (sampleEntry, error) {
	for try := 0; try < s.e.params.MaxTries; try++ {
		entry, ok, err := s.sampleAttempt(layer, root, phi0)
		if err != nil {
			return sampleEntry{}, err
		}
		if ok {
			return entry, nil
		}
	}
	return sampleEntry{}, fmt.Errorf("fpras: no sample after %d attempts at layer %d (increase MaxTries/K)", s.e.params.MaxTries, layer)
}

// sampleAttempt is Algorithm 4: one recursive descent with rejection,
// starting from root, the step of the target vertex set at the given
// layer, with log ϕ = phi0 (ϕ is tracked in log space). Each step draws
// its bit against the step's precomputed split and follows the link to
// the next step.
func (s *sampler) sampleAttempt(layer int, root *stepChoice, phi0 float64) (sampleEntry, bool, error) {
	e := s.e
	logPhi := phi0
	if cap(s.bits) < layer {
		s.bits = make([]byte, layer)
	}
	bits := s.bits[:layer]
	ch := root
	for t := layer; ; t-- {
		if ch.dead {
			return sampleEntry{}, false, fmt.Errorf("fpras: dead end during sampling at layer %d", t)
		}
		b := 0
		if s.rng.Float64() < ch.p1 {
			b = 1
		}
		logPhi -= ch.logP[b]
		bits[t-1] = byte('0' + b)
		if t == 1 {
			break
		}
		ch = s.successor(ch, b, t-1)
	}
	// The descent ended at {s_start}; accept with probability ϕ (unless
	// the E13 ablation disabled the correction).
	if !e.params.SkipRejection {
		if !(logPhi < 0) { // ϕ ∉ (0,1): reject, as Algorithm 4 step 1
			return sampleEntry{}, false, nil
		}
		if s.rng.Float64() >= math.Exp(logPhi) {
			return sampleEntry{}, false, nil
		}
	}
	str := string(bits)
	entry := sampleEntry{bits: str, reach: s.traceReach(str, layer)}
	return entry, true, nil
}

// successor returns the step for ch's predecessor set on bit b, at layer
// t: ch's link when it is filled, else the memo's entry, which then fills
// the link.
func (s *sampler) successor(ch *stepChoice, b, t int) *stepChoice {
	if next := ch.next[b].Load(); next != nil {
		return next
	}
	cur := ch.t0
	if b == 1 {
		cur = ch.t1
	}
	next := s.choiceFor(t, cur)
	ch.next[b].Store(next)
	return next
}

// choiceFor returns the memo's step for the vertex set cur at layer t,
// building and publishing it on a miss. cur must be sorted (targets are
// singletons; descents follow the sorted t0/t1 of earlier steps).
func (s *sampler) choiceFor(t int, cur []int) *stepChoice {
	e := s.e
	h := memoHash(cur)
	if ch := e.memo.get(h, t, cur); ch != nil {
		return ch
	}
	var t0, t1 []int
	seen0 := map[int]bool{}
	seen1 := map[int]bool{}
	appendPred := func(edge unroll.Edge) {
		if edge.Symbol == 0 {
			if !seen0[edge.FromState] {
				seen0[edge.FromState] = true
				t0 = insertSorted(t0, edge.FromState)
			}
		} else {
			if !seen1[edge.FromState] {
				seen1[edge.FromState] = true
				t1 = insertSorted(t1, edge.FromState)
			}
		}
	}
	for _, v := range cur {
		if t == e.dag.N+1 && v == -1 {
			for _, edge := range e.dag.FinalPreds() {
				appendPred(edge)
			}
			continue
		}
		for _, edge := range e.dag.Preds(t, v) {
			appendPred(edge)
		}
	}
	ch := &stepChoice{t0: t0, t1: t1}
	w0 := s.estimateUnion(s.fW[0], t, t0)
	w1 := s.estimateUnion(s.fW[1], t, t1)
	if sum := s.fSum.Add(w0, w1); sum.Sign() <= 0 {
		ch.dead = true
	} else {
		p1, _ := s.fA.Quo(w1, sum).Float64()
		ch.p1 = p1
		ch.logP = [2]float64{math.Log(1 - p1), math.Log(p1)}
	}
	// cur may alias a caller-owned slice; the memo keeps its own copy.
	return e.memo.put(h, t, append([]int(nil), cur...), ch)
}

// traceReach computes the reach set of a freshly sampled string at its own
// layer. Intermediate layers ping-pong through the sampler scratch; only
// the final (retained) set is allocated. For strings owned by s_final
// (layer N+1) the set is the shared unused placeholder.
func (s *sampler) traceReach(bits string, layer int) *bitset.Set {
	e := s.e
	if layer == e.dag.N+1 {
		return e.finalReach
	}
	var cur *bitset.Set
	for i := 0; i < layer; i++ {
		var dst *bitset.Set
		if i == layer-1 {
			dst = bitset.New(e.dag.M)
		} else {
			dst = s.trace[i%2]
		}
		s.stepReachInto(dst, cur, automata.Symbol(bits[i]-'0'), i+1)
		cur = dst
	}
	return cur
}

func insertSorted(xs []int, v int) []int {
	i := 0
	for i < len(xs) && xs[i] < v {
		i++
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// logPhi0 returns log ϕ₀ = −4 − log R(s), the start of an attempt's
// log-space acceptance probability, for a positive R(s).
func logPhi0(r *big.Float) float64 {
	mant := new(big.Float)
	exp := r.MantExp(mant)
	m, _ := mant.Float64()
	return -4 - (math.Log(m) + float64(exp)*math.Ln2)
}

// finalTarget is the descent start for s_final. Shared and never mutated.
var finalTarget = []int{-1}

// Sample makes one Las Vegas attempt to draw a uniform witness of L_n(N)
// using the estimator's internal RNG. It returns ErrEmpty when the language
// slice is empty, ErrFail when the rejection sampler rejected (retry), a
// word of length n on success. Safe for concurrent use, but attempts
// serialize on the internal RNG — use SampleWith or SampleN for parallel
// throughput.
func (e *Estimator) Sample() (automata.Word, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.SampleWith(e.rng)
}

// SampleWith is Sample with a caller-supplied RNG. Distinct goroutines may
// call it concurrently as long as each uses its own *rand.Rand.
func (e *Estimator) SampleWith(rng *rand.Rand) (automata.Word, error) {
	if e.empty {
		return nil, ErrEmpty
	}
	fd := e.finalData
	n := e.dag.N
	if fd.exact {
		// Materialized witness set: perfect uniform draw, never fails.
		if len(fd.entries) == 0 {
			return nil, ErrEmpty
		}
		pick := fd.entries[rng.Intn(len(fd.entries))]
		return bitsToWord(pick.bits[:n]), nil
	}
	s := e.getSampler(rng)
	defer e.putSampler(s)
	entry, ok, err := s.sampleAttempt(n+1, e.finalStep, e.finalLogPhi0)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrFail
	}
	return bitsToWord(entry.bits[:n]), nil
}

// SampleWitness retries Sample up to maxAttempts times (0 means 2000;
// acceptance per attempt is ≈ e⁻⁴ ≈ 1.8%, so 2000 attempts fail with
// probability ≈ 10⁻¹⁶ — Corollary 23's amplification argument). Safe for
// concurrent use with the same serialization caveat as Sample.
func (e *Estimator) SampleWitness(maxAttempts int) (automata.Word, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sampleWitnessWith(e.rng, maxAttempts)
}

// SampleWitnessWith is SampleWitness with a caller-supplied RNG, under the
// same contract as SampleWith.
func (e *Estimator) SampleWitnessWith(rng *rand.Rand, maxAttempts int) (automata.Word, error) {
	return e.sampleWitnessWith(rng, maxAttempts)
}

func (e *Estimator) sampleWitnessWith(rng *rand.Rand, maxAttempts int) (automata.Word, error) {
	if maxAttempts <= 0 {
		maxAttempts = 2000
	}
	for i := 0; i < maxAttempts; i++ {
		w, err := e.SampleWith(rng)
		if err == ErrFail {
			continue
		}
		return w, err
	}
	return nil, ErrFail
}

// SampleN draws k independent uniform witnesses across up to `workers`
// goroutines (0 selects Params.Workers). Sample i is drawn from its own
// (Seed, i)-derived RNG stream with the default retry budget, so the output
// is identical for every worker count; only the wall-clock changes. The
// first (lowest-index) failure is returned: ErrEmpty when the language
// slice is empty, ErrFail when some stream exhausted its retries.
func (e *Estimator) SampleN(k, workers int) ([]automata.Word, error) {
	return e.SampleNCtx(nil, k, workers)
}

// SampleNCtx is SampleN with cooperative cancellation: a non-nil ctx is
// checked on entry and before every draw (the faultinject sample.chunk
// site), never inside a draw, so a cancelled batch returns ctx.Err()
// after at most the draws already under way — each up to the default
// 2000 Las Vegas attempts. A successful call's batch is bitwise identical
// to SampleN's for every ctx and worker count.
func (e *Estimator) SampleNCtx(ctx context.Context, k, workers int) ([]automata.Word, error) {
	if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
		return nil, err
	}
	if e.empty {
		return nil, ErrEmpty
	}
	if k <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = e.params.Workers
	}
	out := make([]automata.Word, k)
	err := par.ForEachIndexedCtx(ctx, k, workers, func(i int) error {
		if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
			return err
		}
		rng := par.StreamRNG(e.params.Seed, streamSampleN, i, 0)
		w, err := e.sampleWitnessWith(rng, 0)
		out[i] = w
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func bitsToWord(bits string) automata.Word {
	w := make(automata.Word, len(bits))
	for i := range bits {
		w[i] = int(bits[i] - '0')
	}
	return w
}
