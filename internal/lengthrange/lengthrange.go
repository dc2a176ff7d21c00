// Package lengthrange is the exact counting index of the repository:
// one ranked index over ALL witness lengths n in [lo, hi] of an
// unambiguous automaton, with a single length as the range [n, n]. The
// paper reduces exact COUNT, ranked access and uniform GEN for
// RelationUL to one table of completion counts over the unrolled DAG
// (Lemma 15, Proposition 14, §5.3.2–5.3.3); this package is that table,
// and every consumer reads it: exact counts and ranked access (core),
// uniform generation (the draws and draw sessions below; internal/sample
// checks a sampler's preconditions and builds its index), and
// Algorithm 1's enumeration (internal/enumerate), which walks the index's
// pruned edge lists and reads its prefix sums for rank seeks, rank cursors
// and the work-stealing scheduler's exact cell sizes.
//
// # Why one backward sweep suffices
//
// The per-vertex tables of the length-n counting DAG depend only on the
// state and the REMAINING length, not on n and the layer separately: at
// vertex (t, q) of the backward-pruned length-n DAG every successor of
// an alive vertex is automatically forward-reachable, so the pruned
// out-edge list — the edges (a, p) with at least one accepting completion
// of length n−t−1 from p, in the DAG's decision order (successor state
// ascending, then symbol ascending) — and its cumulative prefix sums are
// a function of (q, r) with r = n−t alone. Build therefore runs ONE
// backward sweep from the longest length hi, materializing the tables for
// r in 1..hi (a layer large enough to pay for goroutines fans its states
// out on the par primitives, a smaller one runs inline; the tables are
// bitwise identical for any worker count), and every length n in
// [lo, hi] is served by the slice of tables it needs: its total is the
// completion count of the start state at r = n, and an unrank descent for
// length n reads the tables at r = n, n−1, …, 1. So the answers at one
// length are the same bits whichever range the index covers (asserted by
// the equivalence tests). The pruned out-edge lists at r = n−t are the out-edges of layer
// t of the length-n unrolled DAG (Lemma 15) in its decision order, so the
// index is also that DAG: Algorithm 1's enumerator walks them through
// OutEdges, and its decision vectors address the prefix sums directly.
//
// # The ranked API
//
// Per length (…At): TotalAt, RankAt/UnrankAt, and the accessors
// Algorithm 1's rank seek and steal sizing need — SubtreeSpanAt,
// RankOfChoicesAt, EdgeCumAt and UnrankChoicesAt, addressed by decision
// vectors of the length-n DAG. Over the union, rank-space is
// length-lexicographic: all length-lo words first (in the enumeration
// order of that length), then lo+1, and so on — the order
// enumerate.RangeSession emits. TotalRange is the union cardinality,
// RankRange/UnrankRange convert between witnesses of any length in the
// range and their global index, and Sample draws one uniform global rank
// — which first selects a length with probability proportional to its
// exact count, then unranks within it — so the union is sampled exactly
// uniformly. SampleMany fans fixed-size chunks of draw sessions across
// workers with per-chunk seed-derived RNG streams (bitwise identical for
// every worker count), and a DrawSession performs zero heap allocations
// per draw. On a single-length index the global and per-length answers
// coincide.
//
// # Memory model: one limb arena, shared edge lists, one contract
//
// The index stores its counts as k-limb integers in the format of
// internal/limb, the width fixed per index. Each remaining-length layer's
// prefix-sum rows live in ONE flat arena ([]uint64) with per-state int32
// offsets, and the per-length totals spine is one k-limb table as well: a
// global-rank descent — length split plus unrank walk — is limb
// comparisons only.
//
// The pruned edge lists are shared, with no allocation per (r, q). Every
// list lives in one pool of edges and a layer stores int32 bounds into
// it. A state's static list (all its out-edges, in decision order) opens
// the pool, and a list whose successors are all alive is that list; a
// list equal to the state's list one length shorter is that list; only
// the rest are copied, to the end of the pool. On the serving
// benchmark's ranked tenants nearly every list is one of the first two,
// and an index retains half the bytes it did with a list per (r, q).
//
// The sweep starts at one limb. On the first carry out of the top limb,
// in a prefix sum or in the spine, it bounds the bits of every count in
// floating point from the layer that carried and reruns once at that
// width (limb.Fit), one limb wider in the rare case that rounding put the
// bound short: a count of 141 bits gets three limbs, not four.
// limb.ForceWidth raises the starting width, the test hook that pins
// every answer bitwise identical across widths. Unreachable states can
// carry counts larger than any length's total — the sweep is backward
// only — so the carry check and the bound cover every state, not a total.
//
// Build freezes the index before returning: afterwards every method only
// reads, so a RangeIndex is safe for unbounded concurrent use with no
// locking. No method hands out index-owned state except OutEdges, whose
// edge lists are shared and read-only: every *big.Int is converted fresh
// from the arena and owned by the caller.
//
// The index counts accepting runs: a rank is one run, the ranks of a
// word are as many as its runs, and Sample draws a uniform run, so a word
// comes up in proportion to its run count. For an unambiguous automaton,
// the caller's contract (core verifies it once at instance construction),
// runs and words coincide. On an ambiguous one the counts overshoot the
// language, which the Monte-Carlo baseline (internal/baseline) relies on
// to draw a uniform accepting path; internal/oracle's grid pins both
// readings.
//
// # Cancellation
//
// BuildCtx checks its context at every remaining-length layer barrier of
// every sweep attempt and of the width bound that follows a carry (also
// the lengthrange.build.layer fault-injection site of
// internal/faultinject), so a cancelled caller abandons the build within
// one layer. A cancelled or faulted build returns before any index
// is published: the partial tables are released to the collector with
// the error, and the next BuildCtx starts from scratch.
package lengthrange

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/limb"
	"repro/internal/par"
)

// ErrEmpty is returned by the samplers when the witness set they draw
// from is empty — the paper's ⊥ answer.
var ErrEmpty = errors.New("lengthrange: witness set is empty")

// ErrNotMember is wrapped by the rank methods when the word is not a
// witness of the covered lengths.
var ErrNotMember = errors.New("lengthrange: word is not in the language slice")

// Edge is an out-edge of a vertex of the unrolled DAG: the symbol read and
// the successor state.
type Edge struct {
	Symbol automata.Symbol
	To     int
}

// RangeIndex is the frozen cross-length counting index. See the package
// comment for the memory model and sharing contract.
type RangeIndex struct {
	src    *automata.NFA
	lo, hi int
	k      int // limbs per count

	// comp[r][q·k:(q+1)·k] = number of accepting completions of length
	// exactly r from state q (comp[0] marks the final states) — the
	// shared suffix counts every length's subtree counts are slices of.
	// The layers are slices of one allocation.
	comp [][]uint64
	// pool holds every distinct pruned out-edge list: each state's static
	// list first (all its out-edges, ordered by (p asc, a asc) — exactly
	// the decision order of the length-n counting DAG), then the lists no
	// earlier list equals.
	pool []Edge
	// lists[r][2q:2q+2] bounds in pool the pruned out-edges of a vertex at
	// state q with remaining length r: the edges (a, p) with a positive
	// completion count at r−1 from p (empty when q's count is 0). Most
	// bound q's static list, or the same list as at r−1.
	lists [][]int32
	// rows[r] holds the layer's prefix-sum rows in one arena: state q's
	// row starts at limb off[r][q] (-1 when its count is 0) and has one
	// k-limb entry more than q's pruned list, entry i counting the
	// completions through its first i edges.
	rows [][]uint64
	off  [][]int32
	// spine holds len(lengths)+1 k-limb entries: entry i = Σ_{j<i}
	// |L_{lo+j}|, the grand total last. It is the prefix-sum row of the
	// length-lexicographic rank space.
	spine []uint64
}

// Build computes the shared index for all lengths in [lo, hi]. workers
// caps the goroutines one remaining-length layer fans its states across
// (≤ 1 = serial), and a layer whose work is below parallelWork runs
// inline whatever the cap. The result is bitwise identical for every
// worker count:
// each state's sums accumulate in its frozen edge order and write only to
// its own slots, and every offset is assigned in state order. The
// automaton must be ε-free; unambiguity is the caller's contract.
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
	x := &RangeIndex{src: nfa, lo: lo, hi: hi}
	pool, static, err := staticLists(nfa)
	if err != nil {
		return nil, err
	}
	if err := limb.Fit(func(k int) (bool, int, error) { return x.sweep(ctx, pool, static, workers, k) }); err != nil {
		return nil, err
	}
	return x, nil
}

// staticLists returns every state's out-edges in the counting DAG's
// decision order in one arena, state q's at [static[q], static[q+1]).
func staticLists(nfa *automata.NFA) (pool []Edge, static []int32, err error) {
	m, sigma := nfa.NumStates(), nfa.Alphabet().Size()
	total := nfa.NumTransitions()
	if total > math.MaxInt32 {
		return nil, nil, fmt.Errorf("lengthrange: %d transitions exceed int32 offsets", total)
	}
	static = make([]int32, m+1)
	pool = make([]Edge, 0, 2*total)
	for q := 0; q < m; q++ {
		for a := 0; a < sigma; a++ {
			for _, p := range nfa.Successors(q, a) {
				pool = append(pool, Edge{Symbol: a, To: p})
			}
		}
		slices.SortFunc(pool[static[q]:], decisionOrder)
		static[q+1] = int32(len(pool))
	}
	return pool, static, nil
}

// decisionOrder orders out-edges as the counting DAG decides: successor
// state ascending, then symbol ascending. Successor lists are sorted and
// duplicate-free, so no two edges of a state tie.
func decisionOrder(e, f Edge) int {
	if e.To != f.To {
		return cmp.Compare(e.To, f.To)
	}
	return cmp.Compare(e.Symbol, f.Symbol)
}

// parallelWork is the cut-over, in edges × limbs per layer (every state's
// static out-edges, times the width), below which a layer runs inline
// whatever the worker cap: starting and joining goroutines costs more
// than such a layer saves. Measured on a shared 2-vCPU host (GOMAXPROCS
// 2), building [16, 32] serially against fanned out at 2 workers with the
// cut-over disabled, five rounds of 64 builds: the 64 ranked-shaped
// tenants of BenchmarkRangeBuild (at most 512 edges × 1 limb) take
// 208–234 µs (one round 460) against 375–483 µs fanned out; binary DFAs
// break even at 6,516 edges (4.8–7.3 ms against 5.4–7.6 ms), and fanning
// out wins from 13,094 edges (10.9–12.6 ms against 9.1–12.2 ms) and at
// 25,952, the benchmark's large DFA (21.5–24.6 ms against 19.0–21.7 ms).
const parallelWork = 1 << 13

// sweep is the backward sweep at width k over the static lists
// pool[:static[m]]. It returns ok=false, leaving the index untouched,
// when a prefix sum or the grand total carries out of the top limb, with
// need bounding the bits the counts take (needBits); err is non-nil on
// cancellation, an injected fault at a layer barrier, or an arena too
// large for int32 offsets.
func (x *RangeIndex) sweep(ctx context.Context, pool []Edge, static []int32, workers, k int) (ok bool, need int, err error) {
	m, hi := x.src.NumStates(), x.hi
	pool = pool[:static[m]] // a rerun drops the lists of the one before
	comp := make([][]uint64, hi+1)
	counts := make([]uint64, (hi+1)*m*k)
	for r := range comp {
		comp[r] = counts[r*m*k : (r+1)*m*k : (r+1)*m*k]
	}
	for q := 0; q < m; q++ {
		if x.src.IsFinal(q) {
			comp[0][q*k] = 1
		}
	}
	lists := make([][]int32, hi+1)
	off := make([][]int32, hi+1)
	bounds := make([]int32, 3*hi*m)
	for r := 1; r <= hi; r++ {
		b := bounds[3*(r-1)*m : 3*r*m : 3*r*m]
		lists[r], off[r] = b[:2*m:2*m], b[2*m:]
	}
	rows := make([][]uint64, hi+1)

	l := &layerSweep{k: k, static: static}
	w := 1
	if int(static[m])*k >= parallelWork {
		w = workers
	}
	// One backward sweep from the longest length: layer r's lists and
	// prefix sums read only the counts (and lists) at r−1.
	for r := 1; r <= hi; r++ {
		if err := faultinject.Check(ctx, faultinject.SiteRangeLayer); err != nil {
			return false, 0, err
		}
		l.pool, l.prev, l.cnt, l.prevLay, l.lay, l.off = pool, comp[r-1], comp[r], lists[r-1], lists[r], off[r]
		l.states(m, w, (*layerSweep).classify)
		// Offsets in state order: the fresh lists at the end of the pool,
		// the rows in the layer's arena.
		l.base = int32(len(pool))
		fresh, size := l.base, 0
		for q := 0; q < m; q++ {
			s, e := l.lay[2*q], l.lay[2*q+1]
			if s < 0 {
				if fresh > math.MaxInt32-e {
					return false, 0, fmt.Errorf("lengthrange: edge lists exceed int32 offsets at layer %d", r)
				}
				s, e = fresh, fresh+e
				l.lay[2*q], l.lay[2*q+1] = s, e
				fresh = e
			}
			if s == e {
				l.off[q] = -1
				continue
			}
			n := (int(e-s) + 1) * k
			if size > math.MaxInt32-n {
				return false, 0, fmt.Errorf("lengthrange: layer %d arena exceeds int32 offsets", r)
			}
			l.off[q] = int32(size)
			size += n
		}
		pool = append(pool, make([]Edge, fresh-l.base)...)
		l.pool, l.arena = pool, make([]uint64, size)
		l.states(m, w, (*layerSweep).fill)
		if l.carry.Load() {
			need, err := x.needBits(ctx, pool, static, comp, r, k)
			return false, need, err
		}
		rows[r] = l.arena
	}

	// The totals spine: the running sums of the start state's counts. A
	// carry here needs one limb more: it sums fewer than 2^63 counts that
	// each fit k limbs.
	start := x.src.Start()
	spine := make([]uint64, (hi-x.lo+2)*k)
	for i := 0; i <= hi-x.lo; i++ {
		if limb.Add(spine[(i+1)*k:(i+2)*k], spine[i*k:(i+1)*k], comp[x.lo+i][start*k:(start+1)*k]) != 0 {
			return false, 64*k + 1, nil
		}
	}
	if cap(pool) > len(pool) {
		pool = append(make([]Edge, 0, len(pool)), pool...)
	}
	x.k, x.comp, x.pool, x.lists, x.rows, x.off, x.spine = k, comp, pool, lists, rows, off, spine
	return true, 0, nil
}

// layerSweep is one remaining-length layer r of a sweep: the counts and
// lists at r−1 it reads and the tables at r it writes. classify and fill
// touch only their own state's slots, so states may run on any goroutine.
type layerSweep struct {
	k       int
	static  []int32  // static lists: q's at pool[static[q]:static[q+1]]
	pool    []Edge   // every list so far, this layer's fresh ones last
	base    int32    // where this layer's fresh lists start in pool
	prev    []uint64 // counts at r−1
	cnt     []uint64 // counts at r
	prevLay []int32  // lists at r−1 (nil at r = 1)
	lay     []int32  // lists at r
	off     []int32  // row offsets at r
	arena   []uint64 // prefix-sum rows at r
	carry   atomic.Bool
}

// states runs f on the layer's m states, inline or fanned across w
// goroutines in contiguous chunks.
func (l *layerSweep) states(m, w int, f func(l *layerSweep, q int)) {
	if w <= 1 {
		for q := 0; q < m; q++ {
			f(l, q)
		}
		return
	}
	size := (m + 8*w - 1) / (8 * w)
	par.ForEachIndexed((m+size-1)/size, w, func(c int) {
		for q := c * size; q < min(m, (c+1)*size); q++ {
			f(l, q)
		}
	})
}

// alive reports whether state p has a completion at r−1.
func (l *layerSweep) alive(p int) bool { return !limb.IsZero(l.prev[p*l.k : (p+1)*l.k]) }

// classify bounds q's list at r when it is empty, q's static list or the
// list q had at r−1, and otherwise marks it fresh: start −1, its length
// in the end slot, to be placed in state order.
func (l *layerSweep) classify(q int) {
	s, e := l.static[q], l.static[q+1]
	n := int32(0)
	for _, ed := range l.pool[s:e] {
		if l.alive(ed.To) {
			n++
		}
	}
	switch {
	case n == 0: // no completion of length r
		s, e = 0, 0
	case n == e-s: // every successor alive: the static list
	case l.prevLay != nil && l.same(q, n):
		s, e = l.prevLay[2*q], l.prevLay[2*q+1]
	default:
		s, e = -1, n
	}
	l.lay[2*q], l.lay[2*q+1] = s, e
}

// same reports whether q's list at r−1 holds exactly q's n edges alive
// at r−1: it is a sublist of q's static list, so n entries that are all
// alive are those edges.
func (l *layerSweep) same(q int, n int32) bool {
	s, e := l.prevLay[2*q], l.prevLay[2*q+1]
	if e-s != n {
		return false
	}
	for _, ed := range l.pool[s:e] {
		if !l.alive(ed.To) {
			return false
		}
	}
	return true
}

// fill writes q's fresh list, if it has one, and q's prefix-sum row and
// count at r, and flags a carry out of the top limb.
func (l *layerSweep) fill(q int) {
	s, e := l.lay[2*q], l.lay[2*q+1]
	if s == e || l.carry.Load() {
		return
	}
	k, pool := l.k, l.pool
	if s >= l.base {
		j := s
		for _, ed := range pool[l.static[q]:l.static[q+1]] {
			if l.alive(ed.To) {
				pool[j] = ed
				j++
			}
		}
	}
	o := int(l.off[q])
	row := l.arena[o : o+int(e-s+1)*k]
	for j, ed := range pool[s:e] {
		if limb.AddAt(k, row, j+1, l.prev, ed.To) != 0 {
			l.carry.Store(true)
			return
		}
	}
	limb.Set(l.cnt[q*k:(q+1)*k], row[int(e-s)*k:])
}

// needBits bounds the bits every count of an unbounded sweep takes, for
// a sweep that carried at remaining length r0: the counts at r0−1 are
// exact, and the layers r0..hi follow in floating point over the static
// lists (a dead successor adds its zero), as float64 values sharing one
// binary exponent per layer, rescaled to stay in range. Every state is
// bounded, reachable or not — an unreachable state can hold the largest
// count — and so is the totals spine. Rounding can put the bound a bit
// low, which costs Fit one more attempt, never a wrong count.
func (x *RangeIndex) needBits(ctx context.Context, pool []Edge, static []int32, comp [][]uint64, r0, k int) (int, error) {
	m, start := x.src.NumStates(), x.src.Start()
	cur, next := make([]float64, m), make([]float64, m)
	var sum float64 // the spine's grand total, times 2^−sumExp
	sumExp := 0
	add := func(v float64, e int) {
		if e > sumExp {
			sum, sumExp = math.Ldexp(sum, sumExp-e), e
		}
		sum += math.Ldexp(v, e-sumExp)
	}
	for n := x.lo; n < r0; n++ {
		c := comp[n][start*k : (start+1)*k]
		e := max(0, limb.BitLen(c)-512)
		add(limb.Float(c, e), e)
	}
	exp := 0
	for q := range cur {
		exp = max(exp, limb.BitLen(comp[r0-1][q*k:(q+1)*k])-512)
	}
	for q := range cur {
		cur[q] = limb.Float(comp[r0-1][q*k:(q+1)*k], exp)
	}
	need := 64*k + 1 // the carry shows that much
	for r := r0; r <= x.hi; r++ {
		if err := faultinject.Check(ctx, faultinject.SiteRangeLayer); err != nil {
			return 0, err
		}
		top := 0.0
		for q := range next {
			v := 0.0
			for _, ed := range pool[static[q]:static[q+1]] {
				v += cur[ed.To]
			}
			next[q] = v
			top = max(top, v)
		}
		cur, next = next, cur
		if top > 0 {
			need = max(need, exp+math.Ilogb(top)+1)
		}
		if r >= x.lo {
			add(cur[start], exp)
		}
		if top > 0x1p512 {
			for q := range cur {
				cur[q] = math.Ldexp(cur[q], -512)
			}
			exp += 512
		}
	}
	if sum > 0 {
		need = max(need, sumExp+math.Ilogb(sum)+1)
	}
	return need, nil
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

// checkLength reports an error unless n lies in the covered range.
func (x *RangeIndex) checkLength(n int) error {
	if n < x.lo || n > x.hi {
		return fmt.Errorf("lengthrange: length %d outside [%d, %d]", n, x.lo, x.hi)
	}
	return nil
}

// totalAt is |L_n| in limbs (shared; read only); n must be in range.
func (x *RangeIndex) totalAt(n int) []uint64 {
	start := x.src.Start()
	return x.comp[n][start*x.k : (start+1)*x.k]
}

// TotalAt returns |L_n| for one length in the range. The caller owns the
// result.
func (x *RangeIndex) TotalAt(n int) (*big.Int, error) {
	if err := x.checkLength(n); err != nil {
		return nil, err
	}
	return limb.ToBig(x.totalAt(n)), nil
}

// FirstRankOf returns the global rank of the first length-n word — the
// offset of length n's span in the length-lexicographic order. The caller
// owns the result.
func (x *RangeIndex) FirstRankOf(n int) (*big.Int, error) {
	if err := x.checkLength(n); err != nil {
		return nil, err
	}
	i := n - x.lo
	return limb.ToBig(x.spine[i*x.k : (i+1)*x.k]), nil
}

// UnrankAt returns the word at rank r (0-based) WITHIN length n, in the
// enumeration order of Algorithm 1 at that length. The caller owns the
// result; r is not modified.
func (x *RangeIndex) UnrankAt(n int, r *big.Int) (automata.Word, error) {
	w, _, err := x.unrankAt(n, r, false)
	return w, err
}

// UnrankChoicesAt returns the decision vector of the word at rank r
// (0-based) within length n: choices[t] indexes the pruned out-edge list
// at step t — exactly the per-layer decision indices of the length-n
// unrolled DAG, so the vector positions an Algorithm 1 enumerator
// (enumerate.UFAEnumerator.SeekRank, a KindUFA cursor). The caller owns
// the result.
func (x *RangeIndex) UnrankChoicesAt(n int, r *big.Int) ([]int, error) {
	_, choices, err := x.unrankAt(n, r, true)
	return choices, err
}

// SubtreeSpanAt returns, within length n, the rank of the first word of
// the subtree reached by following the decisions of path from the start,
// and the subtree's word count: the half-open rank interval [first,
// first+count) is exactly the subtree's slice of the enumeration. A
// full-length path denotes a single word (count 1); the empty path
// denotes the whole length. The caller owns both results.
func (x *RangeIndex) SubtreeSpanAt(n int, path []int) (first, count *big.Int, err error) {
	sum, q, err := x.pathSum(n, path)
	if err != nil {
		return nil, nil, err
	}
	r := n - len(path)
	return limb.ToBig(sum), limb.ToBig(x.comp[r][q*x.k : (q+1)*x.k]), nil
}

// RankOfChoicesAt returns the rank within length n of the word at the
// full decision vector pos. The caller owns the result.
func (x *RangeIndex) RankOfChoicesAt(n int, pos []int) (*big.Int, error) {
	if len(pos) != n {
		return nil, fmt.Errorf("lengthrange: decision vector has %d entries, want %d", len(pos), n)
	}
	sum, _, err := x.pathSum(n, pos)
	if err != nil {
		return nil, err
	}
	return limb.ToBig(sum), nil
}

// pathSum follows path's decisions from the start state in length n's
// decision order and returns the summed prefix weights of the chosen
// edges (no carry: every partial sum is a rank, below |L_n|) and the state
// reached.
func (x *RangeIndex) pathSum(n int, path []int) ([]uint64, int, error) {
	if err := x.checkLength(n); err != nil {
		return nil, 0, err
	}
	if len(path) > n {
		return nil, 0, fmt.Errorf("lengthrange: path length %d exceeds %d", len(path), n)
	}
	k := x.k
	sum := make([]uint64, k)
	q := x.src.Start()
	for t, i := range path {
		r := n - t
		edges := x.OutEdges(r, q)
		if i < 0 || i >= len(edges) {
			return nil, 0, fmt.Errorf("lengthrange: decision %d at layer %d out of range (%d edges)", i, t, len(edges))
		}
		o := int(x.off[r][q]) + i*k
		limb.Add(sum, sum, x.rows[r][o:o+k])
		q = edges[i].To
	}
	return sum, q, nil
}

// OutEdges returns the pruned out-edges of state q at remaining length r
// in [1, Hi] — those of the layer-(n−r) vertex of every length n's DAG,
// in decision order; empty when q has no completion of length r. The
// slice is index-owned and shared with other (r, q): callers must not
// modify it, and its capacity is its length, so an append copies.
func (x *RangeIndex) OutEdges(r, q int) []Edge {
	l := x.lists[r]
	s, e := l[2*q], l[2*q+1]
	return x.pool[s:e:e]
}

// EdgeCumAt returns the prefix-sum row of one vertex of the length-n
// DAG: the vertex at layer t in [0, n) in state q (the start state at
// t = 0, q ignored). Entry i counts the words through its first i
// out-edges and the last entry is the vertex's subtree count. nil for a
// vertex with no completion or outside the DAG. The caller owns the
// values.
func (x *RangeIndex) EdgeCumAt(n, t, q int) []*big.Int {
	if n < x.lo || n > x.hi || t < 0 || t >= n {
		return nil
	}
	if t == 0 {
		q = x.src.Start()
	}
	r := n - t
	if q < 0 || q >= len(x.off[r]) || x.off[r][q] < 0 {
		return nil
	}
	k := x.k
	o := int(x.off[r][q])
	out := make([]*big.Int, len(x.OutEdges(r, q))+1)
	for i := range out {
		out[i] = limb.ToBig(x.rows[r][o+i*k : o+(i+1)*k])
	}
	return out
}

// unrankAt checks n and 0 ≤ r < |L_n| and descends to the word at rank r
// within length n, also recording the decisions when withChoices is set.
func (x *RangeIndex) unrankAt(n int, r *big.Int, withChoices bool) (automata.Word, []int, error) {
	if err := x.checkLength(n); err != nil {
		return nil, nil, err
	}
	rem := make([]uint64, x.k)
	if r.Sign() < 0 || !limb.FromBig(rem, r) || limb.Cmp(rem, x.totalAt(n)) >= 0 {
		return nil, nil, fmt.Errorf("lengthrange: rank %v out of range [0, %v) at length %d", r, limb.ToBig(x.totalAt(n)), n)
	}
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
	k, rows, off := x.k, x.rows, x.off
	q := x.src.Start()
	n := len(w)
	for r := n; r >= 1; r-- {
		edges := x.OutEdges(r, q)
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
// lie in the range), or an error wrapping ErrNotMember when w is not a
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
		return nil, fmt.Errorf("lengthrange: word length %d outside [%d, %d] (%w)", n, x.lo, x.hi, ErrNotMember)
	}
	sigma := x.src.Alphabet().Size()
	for i, a := range w {
		if a < 0 || a >= sigma {
			return nil, fmt.Errorf("lengthrange: symbol %d at position %d out of range (%w)", a, i, ErrNotMember)
		}
	}
	k := x.k
	rk := make([]uint64, k)
	if n == 0 {
		if !x.positive(0, x.src.Start()) {
			return nil, fmt.Errorf("lengthrange: ε is not accepted (%w)", ErrNotMember)
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
		return nil, fmt.Errorf("lengthrange: no accepting run (%w)", ErrNotMember)
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
			return nil, fmt.Errorf("lengthrange: broken run reconstruction at position %d (%w)", t, ErrNotMember)
		}
		path[t] = prev
	}
	// Sum the prefix weight of the chosen edge at every step (no carry:
	// every partial sum is a rank, below the length's total).
	for t := 0; t < n; t++ {
		r := n - t
		edges := x.OutEdges(r, path[t])
		idx := -1
		for j, e := range edges {
			if e.To == path[t+1] && e.Symbol == w[t] {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("lengthrange: run leaves the pruned tables at position %d (%w)", t, ErrNotMember)
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

// Rank is RankRange.
//
// Deprecated: use RankRange, or RankAt for the rank within a length. The
// serving benchmark (perfbench, a separate module) still calls Rank
// through countdag.Index.
func (x *RangeIndex) Rank(w automata.Word) (*big.Int, error) { return x.RankRange(w) }

// Unrank is UnrankRange.
//
// Deprecated: use UnrankRange, or UnrankAt within a length. The serving
// benchmark still calls Unrank through countdag.Index.
func (x *RangeIndex) Unrank(r *big.Int) (automata.Word, error) { return x.UnrankRange(r) }

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

// SampleDistinctAt draws k distinct witnesses of length n uniformly
// without replacement, by rejection in rank-space: ranks are drawn
// uniformly (limb.Draw, the entropy stream of sample.RandBig) and repeats
// discarded, so the result is a uniform k-subset of L_n in draw order.
// ErrEmpty when L_n is empty, an error when k exceeds |L_n|. Rejection
// is cheap while k ≤ |L_n|/2 and degrades gracefully (coupon-collector)
// as k approaches |L_n|. The caller owns the result.
func (x *RangeIndex) SampleDistinctAt(n, k int, rng *rand.Rand) ([]automata.Word, error) {
	if k <= 0 {
		return nil, nil
	}
	if err := x.checkLength(n); err != nil {
		return nil, err
	}
	total := x.totalAt(n)
	if limb.IsZero(total) {
		return nil, ErrEmpty
	}
	if t := limb.ToBig(total); t.Cmp(big.NewInt(int64(k))) < 0 {
		return nil, fmt.Errorf("lengthrange: %d distinct witnesses requested but |L_%d| = %v", k, n, t)
	}
	out := make([]automata.Word, 0, k)
	seen := make(map[string]struct{}, k)
	rem := make([]uint64, x.k)
	var key []byte
	for len(out) < k {
		limb.Draw(rng, total, rem)
		key = key[:0]
		for _, l := range rem {
			key = binary.LittleEndian.AppendUint64(key, l)
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		w := make(automata.Word, n)
		if err := x.descend(rem, w, nil); err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// sampleChunk is the number of draws one seed-derived RNG stream covers
// in SampleMany: fixed (not worker-dependent) so the batch is identical
// for every worker count.
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
