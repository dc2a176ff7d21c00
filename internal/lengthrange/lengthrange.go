// Package lengthrange builds one shared ranked counting index over ALL
// witness lengths n in [lo, hi] of an unambiguous automaton — the
// cross-length sharing the per-instance countdag cannot do (one
// countdag.Index is bound to a single n; serving a length range used to
// mean hi−lo+1 independent backward sweeps).
//
// # Why one backward sweep suffices
//
// The per-vertex tables of the length-n counting DAG (internal/countdag)
// depend only on the state and the REMAINING length, not on n and the
// layer separately: at vertex (t, q) of the length-n DAG every successor
// of an alive vertex is automatically forward-reachable, so the pruned
// out-edge list — the edges (a, p) with at least one accepting completion
// of length n−t−1 from p, in the DAG's decision order (successor state
// ascending, then symbol ascending) — and its cumulative prefix sums are
// a function of (q, r) with r = n−t alone. Build therefore runs ONE
// backward sweep from the longest length hi, materializing the tables for
// r in 1..hi (layer-parallel on the par primitives, bitwise identical for
// any worker count), and every length n in [lo, hi] is served by the
// slice of tables it needs: its total is the completion count of the
// start state at r = n, and an unrank descent for length n reads the
// tables at r = n, n−1, …, 1. Per-length answers are bitwise identical to
// a countdag.Index built for that length (asserted by the equivalence
// tests), at roughly the build cost of the single longest length instead
// of the sum over all of them.
//
// # The ranked API over the union of lengths
//
// Rank-space is length-lexicographic: all length-lo words first (in the
// countdag enumeration order of that length), then lo+1, and so on — the
// order EnumerateRange emits. TotalRange is the union cardinality,
// RankRange/UnrankRange convert between witnesses of any length in the
// range and their global index, and Sample draws one uniform global rank
// — which first selects a length with probability proportional to its
// exact count, then unranks within it — so the union is sampled exactly
// uniformly. SampleMany fans fixed-size chunks of draw sessions across
// workers with per-chunk seed-derived RNG streams (bitwise identical for
// every worker count), and a DrawSession performs zero heap allocations
// per draw.
//
// # Memory model: one limb arena, one contract
//
// Like countdag, the index stores its counts as k-limb integers in the
// format of internal/limb, the width fixed per index. Each
// remaining-length layer's prefix-sum rows live in ONE flat arena
// ([]uint64) with per-state int32 offsets, and the per-length totals
// spine is one k-limb table as well: a global-rank descent — length
// split plus unrank walk — is limb comparisons only. The sweep starts at
// one limb and reruns at twice the width on the first carry out of the
// top limb, in a prefix sum or in the spine (limb.Fit). Unlike countdag,
// unreachable states can carry counts larger than any length's total
// here — the sweep is backward only — so the carry check, not a total,
// decides the width.
//
// Build freezes the index before returning: afterwards every method only
// reads, so a RangeIndex is safe for unbounded concurrent use with no
// locking. TotalAt converts a fresh value on each call but keeps the
// do-not-mutate contract of the shared accessors; methods that compute
// ranks or words (TotalRange, RankRange, UnrankRange, RankAt, UnrankAt,
// Sample) return values the caller owns.
//
// Unambiguity is the caller's contract (core verifies it once at
// instance construction): on an ambiguous automaton the index counts
// accepting RUNS, so ranks and counts overshoot the language.
//
// The resumable cross-length enumeration session and its el1:R: token
// format live in session.go.
package lengthrange

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/countdag"
	"repro/internal/faultinject"
	"repro/internal/limb"
	"repro/internal/par"
	"repro/internal/unroll"
)

// ErrEmpty is returned by the samplers when the whole range is empty —
// the paper's ⊥ answer.
var ErrEmpty = errors.New("lengthrange: witness set is empty over the range")

// RangeIndex is the frozen cross-length counting index. See the package
// comment for the memory model and sharing contract.
type RangeIndex struct {
	src    *automata.NFA
	lo, hi int
	k      int // limbs per count

	// comp[r][q·k:(q+1)·k] = number of accepting completions of length
	// exactly r from state q (comp[0] marks the final states) — the
	// shared suffix counts every length's subtree counts are slices of.
	comp [][]uint64
	// edges[r][q] lists the pruned out-edges of a vertex at state q with
	// remaining length r (nil when the completion count is 0): the edges
	// (a, p) with a positive completion count at r−1 from p, ordered by
	// (p asc, a asc) — exactly the decision order of the length-n counting
	// DAG at layer n−r.
	edges [][][]unroll.OutEdge
	// rows[r] holds the layer's prefix-sum rows in one arena: state q's
	// row starts at limb off[r][q] (-1 when its count is 0) and has
	// len(edges[r][q])+1 k-limb entries, entry i counting the completions
	// through its first i edges.
	rows [][]uint64
	off  [][]int32
	// spine holds len(lengths)+1 k-limb entries: entry i = Σ_{j<i}
	// |L_{lo+j}|, the grand total last. It is the prefix-sum row of the
	// length-lexicographic rank space.
	spine []uint64
}

// Build computes the shared index for all lengths in [lo, hi], fanning
// each remaining-length layer's states across up to `workers` goroutines
// (≤ 1 = serial; the result is bitwise identical for every worker count —
// each state's sums accumulate in its frozen edge order and write only to
// its own slots). The automaton must be ε-free; unambiguity is the
// caller's contract.
func Build(nfa *automata.NFA, lo, hi, workers int) (*RangeIndex, error) {
	return BuildCtx(nil, nfa, lo, hi, workers)
}

// BuildCtx is Build with cooperative cancellation: a non-nil ctx is
// checked at every remaining-length layer barrier of the backward sweep
// (the faultinject lengthrange.build.layer site), so an abandoned request
// stops within one layer's work and its partial tables are released with
// the returned error. On success the index is bitwise identical to
// Build's for every ctx and worker count. A layer whose arena would not
// fit int32 offsets is an error too.
func BuildCtx(ctx context.Context, nfa *automata.NFA, lo, hi, workers int) (*RangeIndex, error) {
	if err := faultinject.Check(ctx, faultinject.SiteRangeLayer); err != nil {
		return nil, err
	}
	if nfa.HasEpsilon() {
		return nil, fmt.Errorf("lengthrange: automaton has ε-transitions")
	}
	if lo < 0 || lo > hi {
		return nil, fmt.Errorf("lengthrange: bad length range [%d, %d]", lo, hi)
	}
	m := nfa.NumStates()
	sigma := nfa.Alphabet().Size()
	x := &RangeIndex{src: nfa, lo: lo, hi: hi}

	// Static out-edges per state, sorted into the counting DAG's decision
	// order (successor state ascending, then symbol ascending). Successor
	// lists are sorted and duplicate-free, so the order is unambiguous.
	sorted := make([][]unroll.OutEdge, m)
	for q := 0; q < m; q++ {
		var out []unroll.OutEdge
		for a := 0; a < sigma; a++ {
			for _, p := range nfa.Successors(q, a) {
				out = append(out, unroll.OutEdge{Symbol: a, To: p})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].To != out[j].To {
				return out[i].To < out[j].To
			}
			return out[i].Symbol < out[j].Symbol
		})
		sorted[q] = out
	}
	if err := limb.Fit(func(k int) (bool, error) { return x.sweep(ctx, sorted, workers, k) }); err != nil {
		return nil, err
	}
	return x, nil
}

// sweep is the backward sweep at width k. It returns ok=false, leaving
// the index untouched, when a prefix sum or the grand total carries out
// of the top limb; err is non-nil on cancellation, an injected fault at
// a layer barrier, or an arena too large for int32 offsets.
func (x *RangeIndex) sweep(ctx context.Context, sorted [][]unroll.OutEdge, workers, k int) (ok bool, err error) {
	m := x.src.NumStates()
	hi := x.hi
	comp := make([][]uint64, hi+1)
	edges := make([][][]unroll.OutEdge, hi+1)
	rows := make([][]uint64, hi+1)
	off := make([][]int32, hi+1)
	comp[0] = make([]uint64, m*k)
	for q := 0; q < m; q++ {
		if x.src.IsFinal(q) {
			comp[0][q*k] = 1
		}
	}
	var overflowed atomic.Bool
	// One backward sweep from the longest length: layer r's prefix sums
	// read only the counts at r−1.
	for r := 1; r <= hi; r++ {
		if err := faultinject.Check(ctx, faultinject.SiteRangeLayer); err != nil {
			return false, err
		}
		prev := comp[r-1]
		layerEdges := make([][]unroll.OutEdge, m)
		par.ForEachIndexed(m, workers, func(q int) {
			var pruned []unroll.OutEdge
			for _, e := range sorted[q] {
				if limb.IsZero(prev[e.To*k : (e.To+1)*k]) {
					continue
				}
				if pruned == nil {
					pruned = make([]unroll.OutEdge, 0, len(sorted[q]))
				}
				pruned = append(pruned, e)
			}
			layerEdges[q] = pruned
		})
		lay := make([]int32, m)
		size := 0
		for q := 0; q < m; q++ {
			if layerEdges[q] == nil {
				lay[q] = -1
				continue
			}
			w := (len(layerEdges[q]) + 1) * k
			if size > math.MaxInt32-w {
				return false, fmt.Errorf("lengthrange: layer %d arena exceeds int32 offsets", r)
			}
			lay[q] = int32(size)
			size += w
		}
		arena := make([]uint64, size)
		cnt := make([]uint64, m*k)
		par.ForEachIndexed(m, workers, func(q int) {
			pruned := layerEdges[q]
			if pruned == nil || overflowed.Load() {
				return
			}
			row := arena[lay[q] : int(lay[q])+(len(pruned)+1)*k]
			for j, e := range pruned {
				if limb.AddAt(k, row, j+1, prev, e.To) != 0 {
					overflowed.Store(true)
					return
				}
			}
			limb.Set(cnt[q*k:(q+1)*k], row[len(pruned)*k:])
		})
		if overflowed.Load() {
			return false, nil
		}
		comp[r], edges[r], rows[r], off[r] = cnt, layerEdges, arena, lay
	}

	// The totals spine: the running sums of the start state's counts.
	start := x.src.Start()
	spine := make([]uint64, (hi-x.lo+2)*k)
	for i := 0; i <= hi-x.lo; i++ {
		if limb.Add(spine[(i+1)*k:(i+2)*k], spine[i*k:(i+1)*k], comp[x.lo+i][start*k:(start+1)*k]) != 0 {
			return false, nil
		}
	}
	x.k, x.comp, x.edges, x.rows, x.off, x.spine = k, comp, edges, rows, off, spine
	return true, nil
}

// Lo returns the smallest length the index covers.
func (x *RangeIndex) Lo() int { return x.lo }

// Hi returns the largest length the index covers.
func (x *RangeIndex) Hi() int { return x.hi }

// Automaton returns the automaton the index was built on.
func (x *RangeIndex) Automaton() *automata.NFA { return x.src }

// Width returns the number of 64-bit limbs per count (see the package
// comment).
func (x *RangeIndex) Width() int { return x.k }

// grand returns the grand total in limbs (shared; read only).
func (x *RangeIndex) grand() []uint64 { return x.spine[len(x.spine)-x.k:] }

// TotalRange returns |⋃_{n∈[lo,hi]} L_n| — the size of the whole
// length-lexicographic rank space. The caller owns the result.
func (x *RangeIndex) TotalRange() *big.Int { return limb.ToBig(x.grand()) }

// TotalAt returns |L_n| for one length in the range. Do not mutate.
func (x *RangeIndex) TotalAt(n int) (*big.Int, error) {
	if n < x.lo || n > x.hi {
		return nil, fmt.Errorf("lengthrange: length %d outside [%d, %d]", n, x.lo, x.hi)
	}
	start := x.src.Start()
	return limb.ToBig(x.comp[n][start*x.k : (start+1)*x.k]), nil
}

// FirstRankOf returns the global rank of the first length-n word — the
// offset of length n's span in the length-lexicographic order. The caller
// owns the result.
func (x *RangeIndex) FirstRankOf(n int) (*big.Int, error) {
	if n < x.lo || n > x.hi {
		return nil, fmt.Errorf("lengthrange: length %d outside [%d, %d]", n, x.lo, x.hi)
	}
	i := n - x.lo
	return limb.ToBig(x.spine[i*x.k : (i+1)*x.k]), nil
}

// UnrankAt returns the word at rank r (0-based) WITHIN length n — bitwise
// identical to countdag.Unrank on the length-n index. The caller owns the
// result; r is not modified.
func (x *RangeIndex) UnrankAt(n int, r *big.Int) (automata.Word, error) {
	w, _, err := x.unrankAt(n, r, false)
	return w, err
}

// UnrankChoicesAt returns the decision vector of the word at rank r
// (0-based) within length n: choices[t] indexes the pruned out-edge list
// at step t — exactly the per-layer decision indices of the length-n
// counting DAG, so the vector positions an Algorithm 1 enumerator
// (enumerate.OpenShardAt / a KindUFA cursor) without building that
// length's countdag index. The caller owns the result.
func (x *RangeIndex) UnrankChoicesAt(n int, r *big.Int) ([]int, error) {
	_, choices, err := x.unrankAt(n, r, true)
	return choices, err
}

// unrankAt checks n and 0 ≤ r < |L_n| and descends to the word at rank r
// within length n, also recording the decisions when withChoices is set.
func (x *RangeIndex) unrankAt(n int, r *big.Int, withChoices bool) (automata.Word, []int, error) {
	total, err := x.TotalAt(n)
	if err != nil {
		return nil, nil, err
	}
	if r.Sign() < 0 || r.Cmp(total) >= 0 {
		return nil, nil, fmt.Errorf("lengthrange: rank %v out of range [0, %v) at length %d", r, total, n)
	}
	rem := make([]uint64, x.k)
	limb.FromBig(rem, r)
	w := make(automata.Word, n)
	var choices []int
	if withChoices {
		choices = make([]int, n)
	}
	if err := x.descend(rem, w, choices); err != nil {
		return nil, nil, err
	}
	return w, choices, nil
}

// descend is the unrank walk: w's length selects the start table, and at
// each step the row of the remaining length is searched for the subtree
// containing rem, consuming rem as scratch. choices, when non-nil
// (len(w) entries), records the edge index taken at each step.
// Allocation-free given caller-owned buffers.
func (x *RangeIndex) descend(rem []uint64, w automata.Word, choices []int) error {
	k, allEdges, rows, off := x.k, x.edges, x.rows, x.off
	q := x.src.Start()
	n := len(w)
	for r := n; r >= 1; r-- {
		edges := allEdges[r][q]
		if len(edges) == 0 {
			return fmt.Errorf("lengthrange: inconsistent prefix sums at remaining length %d", r)
		}
		o := int(off[r][q])
		row := rows[r][o : o+(len(edges)+1)*k]
		i, ok := limb.Pick(row, rem)
		if !ok {
			i = limb.Descend(row, rem)
		}
		if i == len(edges) {
			return fmt.Errorf("lengthrange: inconsistent prefix sums at remaining length %d", r)
		}
		w[n-r] = edges[i].Symbol
		if choices != nil {
			choices[n-r] = i
		}
		q = edges[i].To
	}
	return nil
}

// positive reports whether the completion count at (remaining r, state
// q) is positive.
func (x *RangeIndex) positive(r, q int) bool {
	return !limb.IsZero(x.comp[r][q*x.k : (q+1)*x.k])
}

// RankAt returns the rank of w within its own length's span (len(w) must
// lie in the range) — bitwise identical to countdag.Rank on that length's
// index — or an error wrapping countdag.ErrNotMember when w is not a
// witness. For a UFA the accepting run is unique, so it is reconstructed
// forward (reachable sets along w, pruned by the completion counts) and
// then backward from the accepting final state.
func (x *RangeIndex) RankAt(w automata.Word) (*big.Int, error) {
	rk, err := x.rankAt(w)
	if err != nil {
		return nil, err
	}
	return limb.ToBig(rk), nil
}

// rankAt is RankAt in limbs.
func (x *RangeIndex) rankAt(w automata.Word) ([]uint64, error) {
	n := len(w)
	if n < x.lo || n > x.hi {
		return nil, fmt.Errorf("lengthrange: word length %d outside [%d, %d] (%w)", n, x.lo, x.hi, countdag.ErrNotMember)
	}
	sigma := x.src.Alphabet().Size()
	for i, a := range w {
		if a < 0 || a >= sigma {
			return nil, fmt.Errorf("lengthrange: symbol %d at position %d out of range (%w)", a, i, countdag.ErrNotMember)
		}
	}
	k := x.k
	rk := make([]uint64, k)
	if n == 0 {
		if !x.positive(0, x.src.Start()) {
			return nil, fmt.Errorf("lengthrange: ε is not accepted (%w)", countdag.ErrNotMember)
		}
		return rk, nil
	}
	m := x.src.NumStates()
	// Forward: reach[t] = states reachable via w[:t+1] that still have an
	// accepting completion of the remaining length (the pruned aliveness
	// of the length-n DAG).
	reach := make([]*bitset.Set, n)
	cur := bitset.New(m)
	for _, p := range x.src.Successors(x.src.Start(), w[0]) {
		if x.positive(n-1, p) {
			cur.Add(p)
		}
	}
	reach[0] = cur
	for t := 1; t < n; t++ {
		next := bitset.New(m)
		rem := n - t - 1
		cur.ForEach(func(q int) {
			for _, p := range x.src.Successors(q, w[t]) {
				if x.positive(rem, p) {
					next.Add(p)
				}
			}
		})
		reach[t] = next
		cur = next
	}
	// The accepting final state of w's unique run, then the unique
	// backward predecessor chain.
	path := make([]int, n+1)
	path[0] = x.src.Start()
	final := -1
	reach[n-1].ForEach(func(p int) {
		if x.src.IsFinal(p) && final < 0 {
			final = p
		}
	})
	if final < 0 {
		return nil, fmt.Errorf("lengthrange: no accepting run (%w)", countdag.ErrNotMember)
	}
	path[n] = final
	for t := n - 1; t >= 1; t-- {
		prev := -1
		tgt := path[t+1]
		reach[t-1].ForEach(func(p int) {
			if prev >= 0 {
				return
			}
			for _, s := range x.src.Successors(p, w[t]) {
				if s == tgt {
					prev = p
					return
				}
			}
		})
		if prev < 0 {
			return nil, fmt.Errorf("lengthrange: broken run reconstruction at position %d (%w)", t, countdag.ErrNotMember)
		}
		path[t] = prev
	}
	// Sum the prefix weight of the chosen edge at every step (no carry:
	// every partial sum is a rank, below the length's total).
	for t := 0; t < n; t++ {
		r := n - t
		edges := x.edges[r][path[t]]
		idx := -1
		for j, e := range edges {
			if e.To == path[t+1] && e.Symbol == w[t] {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("lengthrange: run leaves the pruned tables at position %d (%w)", t, countdag.ErrNotMember)
		}
		o := int(x.off[r][path[t]]) + idx*k
		limb.Add(rk, rk, x.rows[r][o:o+k])
	}
	return rk, nil
}

// RankRange returns the global index of w in the length-lexicographic
// order over the whole range: the spans of all shorter lengths, plus w's
// rank within its own length. The caller owns the result.
func (x *RangeIndex) RankRange(w automata.Word) (*big.Int, error) {
	rk, err := x.rankAt(w)
	if err != nil {
		return nil, err
	}
	i := len(w) - x.lo
	limb.Add(rk, rk, x.spine[i*x.k:(i+1)*x.k])
	return limb.ToBig(rk), nil
}

// UnrankRange returns the witness at the given global rank of the
// length-lexicographic order. The caller owns the result; r is not
// modified.
func (x *RangeIndex) UnrankRange(r *big.Int) (automata.Word, error) {
	rem, n, err := x.splitRank(r)
	if err != nil {
		return nil, err
	}
	w := make(automata.Word, n)
	if err := x.descend(rem, w, nil); err != nil {
		return nil, err
	}
	return w, nil
}

// SplitRank resolves a global rank into (length, rank within that
// length). The caller owns both results.
func (x *RangeIndex) SplitRank(r *big.Int) (n int, within *big.Int, err error) {
	rem, n, err := x.splitRank(r)
	if err != nil {
		return 0, nil, err
	}
	return n, limb.ToBig(rem), nil
}

// splitRank checks 0 ≤ r < TotalRange and splits r in fresh limbs.
func (x *RangeIndex) splitRank(r *big.Int) ([]uint64, int, error) {
	rem := make([]uint64, x.k)
	if r.Sign() < 0 || !limb.FromBig(rem, r) || limb.Cmp(rem, x.grand()) >= 0 {
		return nil, 0, fmt.Errorf("lengthrange: rank %v out of range [0, %v)", r, x.TotalRange())
	}
	return rem, x.split(rem), nil
}

// split turns the global rank in rem (below the grand total) into the
// rank within its length, in place, and returns that length: the span
// of length lo+i owns the ranks [spine[i], spine[i+1]).
func (x *RangeIndex) split(rem []uint64) int {
	return x.lo + limb.Descend(x.spine, rem)
}

// Sample draws one witness uniformly from the union of all lengths in the
// range: one uniform global rank (so each length is selected with
// probability exactly |L_n|/TotalRange), then one unrank descent within
// it. ErrEmpty when the whole range is empty. Safe for concurrent use as
// long as each call brings its own rng; batch callers should prefer a
// DrawSession or SampleMany. The caller owns the result.
func (x *RangeIndex) Sample(rng *rand.Rand) (automata.Word, error) {
	if limb.IsZero(x.grand()) {
		return nil, ErrEmpty
	}
	var buf [4]uint64
	rem := limb.Scratch(buf[:], x.k)
	limb.Draw(rng, x.grand(), rem)
	w := make(automata.Word, x.split(rem))
	if err := x.descend(rem, w, nil); err != nil {
		return nil, err
	}
	return w, nil
}

// sampleChunk is the number of draws one seed-derived RNG stream covers
// in SampleMany: fixed (not worker-dependent) so the batch is identical
// for every worker count — the same chunking discipline as
// sample.UFASampler.SampleMany.
const sampleChunk = 64

// SampleMany draws k independent uniform witnesses from the range across
// up to `workers` goroutines (≤ 1 = serial). Chunks of sampleChunk
// consecutive draws share one RNG stream derived from (seed, stream,
// chunk), so the batch depends on (seed, stream, k) only — bitwise
// identical for every worker count.
func (x *RangeIndex) SampleMany(seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	return x.SampleManyCtx(nil, seed, stream, k, workers)
}

// SampleManyCtx is SampleMany with cooperative cancellation: a non-nil
// ctx is checked at every chunk boundary (the faultinject sample.chunk
// site), never inside a chunk, so the hot draw loop is untouched. The
// draws a successful call returns are bitwise identical to SampleMany's
// for every ctx and worker count.
func (x *RangeIndex) SampleManyCtx(ctx context.Context, seed int64, stream uint64, k, workers int) ([]automata.Word, error) {
	if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, nil
	}
	if limb.IsZero(x.grand()) {
		return nil, ErrEmpty
	}
	out := make([]automata.Word, k)
	chunks := (k + sampleChunk - 1) / sampleChunk
	err := par.ForEachIndexedCtx(ctx, chunks, workers, func(c int) error {
		if err := faultinject.Check(ctx, faultinject.SiteSampleChunk); err != nil {
			return err
		}
		d := x.NewDrawSession(par.StreamRNG(seed, stream, c, 0))
		lo, hi := c*sampleChunk, (c+1)*sampleChunk
		if hi > k {
			hi = k
		}
		for i := lo; i < hi; i++ {
			w, err := d.Sample()
			if err != nil {
				// The grand total is positive, so Sample cannot fail;
				// guard against index corruption anyway.
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

// DrawSession is a single-goroutine range-sampling stream with reusable
// scratch: Sample performs zero heap allocations per draw (the returned
// word aliases the session buffer and is only valid until the next call).
type DrawSession struct {
	x   *RangeIndex
	rng *rand.Rand
	rem []uint64
	w   automata.Word
}

// NewDrawSession wraps rng with per-session scratch for allocation-free
// repeated draws. The session must not be shared between goroutines.
func (x *RangeIndex) NewDrawSession(rng *rand.Rand) *DrawSession {
	return &DrawSession{x: x, rng: rng, rem: make([]uint64, x.k), w: make(automata.Word, x.hi)}
}

// Sample draws one uniform witness from the range. The returned word
// aliases the session's buffer (sliced to the drawn length) and is only
// valid until the next call — copy to retain.
func (d *DrawSession) Sample() (automata.Word, error) {
	if limb.IsZero(d.x.grand()) {
		return nil, ErrEmpty
	}
	limb.Draw(d.rng, d.x.grand(), d.rem)
	w := d.w[:d.x.split(d.rem)]
	if err := d.x.descend(d.rem, w, nil); err != nil {
		return nil, err
	}
	return w, nil
}
