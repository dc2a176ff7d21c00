// Package countdag builds the ranked counting index over the unrolled DAG
// that the paper's counting and uniform-generation results both reduce to:
// for every vertex (layer, state) of the Lemma 15 DAG, the number of
// s_final-completions from it (the §5.3.2 path counts — for a UFA, the
// number of witness suffixes), plus the cumulative per-edge prefix sums of
// those counts in the DAG's decision order. One index powers four
// consumers:
//
//   - exact counting: Total() is |L_n(N)| (Proposition 14);
//   - uniform generation: a draw is one uniform rank plus one Unrank walk,
//     O(n·log Δ) comparisons against frozen prefix sums (internal/sample);
//   - ranked random access: Rank and Unrank convert between witnesses and
//     their index in the enumeration order of Algorithm 1, so any suffix of
//     the enumeration is addressable in O(n) without replay
//     (enumerate.SeekRank, rank resume tokens);
//   - exact scheduling: SubtreeSpan/RankOfChoices give the work-stealing
//     scheduler exact remaining-cell sizes in place of the
//     words-since-last-split proxy (internal/enumerate).
//
// The index orders words by the DAG's decision-list order — the order
// Algorithm 1 enumerates, with edges out of a vertex sorted as
// unroll.DAG.Succs returns them — not by symbol-lexicographic order (the
// two coincide for deterministic automata whose successor lists are sorted
// by symbol, but not in general).
//
// # Memory model: one limb arena, one contract
//
// Counts are k-limb integers in the format of internal/limb, with the
// width k fixed per index: the narrowest power of two at which no prefix
// sum carries out of the top limb (any alive vertex's count is bounded
// by Total, so k is ⌈bitlen(Total)/64⌉ rounded up to a power of two — 1
// in the common case). Each decision layer's prefix-sum rows live in ONE
// flat arena ([]uint64) with per-state int32 offsets: a descent is
// cache-local limb comparisons, with no pointer chasing and no big.Int
// arithmetic. The backward sweep starts at one limb and reruns at twice
// the width on the first carry (limb.Fit); limb.ForceWidth raises the
// starting width, the test hook that pins every answer bitwise identical
// across widths.
//
// Build freezes the index before returning; afterwards every method only
// reads, so an Index is safe for unbounded concurrent use with no
// locking. Total returns one frozen *big.Int that callers MUST NOT mutate
// (copy with new(big.Int).Set first); Count, EdgeCum and SubtreeSpan
// convert fresh values from the arena on every call, but keep the same
// do-not-mutate contract so the bigmut analyzer can treat the accessors
// alike. Methods that compute ranks or words (Rank, RankOfChoices,
// Unrank) return values the caller owns. The same contract extends
// transitively to consumers that re-expose index values
// (sample.UFASampler.Count and friends).
//
// An Index is bound to the numeric structure of its DAG, not to the DAG
// pointer: unroll.Build is deterministic, so an index built on one DAG is
// valid for any other DAG built from the same automaton, length and
// options (core shares one index across its sampler and enumerators this
// way). The intended options are PruneBackward: true — the decision orders
// then agree with the enumerator's; the counts are correct (dead branches
// count zero) without it, but rank-space is only dense with pruning.
//
// # Cancellation
//
// BuildCtx is Build with cooperative cancellation: the context is checked
// at every layer barrier of every backward sweep attempt (serial and
// parallel — also the countdag.build.layer fault-injection site of
// internal/faultinject), so a cancelled caller abandons the build within
// one layer. A cancelled or faulted build returns before any index is
// published: the partial tables are unreachable after the error returns
// and are released to the collector, and the next BuildCtx starts from
// scratch — there is no poisoned cached state to invalidate.
package countdag

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync/atomic"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/limb"
	"repro/internal/par"
	"repro/internal/unroll"
)

// ErrNotMember is wrapped by Rank when the word is not in the DAG's
// language slice.
var ErrNotMember = fmt.Errorf("countdag: word is not in the language slice")

// Index is the frozen ranked counting index. See the package comment for
// the memory model and sharing contract.
type Index struct {
	dag   *unroll.DAG
	k     int      // limbs per count
	total *big.Int // frozen; ktotal in limbs
	// rows[t] holds decision layer t's prefix-sum rows, t in 0..N-1
	// (rows[0] is the s_start row; at N = 0 it is the only row and has no
	// edges). A vertex with deg out-edges has deg+1 k-limb entries: entry
	// i counts the words through its first i edges, the last one is its
	// subtree count. off[t][q] is the limb offset of (t, q)'s row for t
	// ≥ 1 (-1 when the vertex is dead).
	rows   [][]uint64
	off    [][]int32
	ktotal []uint64
	// last[q·k:(q+1)·k] is the layer-N count of state q: 1 when (N, q) is
	// alive and accepting, else 0. At N = 0 layer N is s_start's layer,
	// so only the start state can count 1, when ε is accepted.
	last []uint64
}

// Build computes the index for d, fanning each layer's vertices across up
// to `workers` goroutines (≤ 1 = serial; the result is bitwise identical
// for every worker count — each vertex's sum is accumulated in its frozen
// edge order and written only to its own slot).
func Build(d *unroll.DAG, workers int) *Index {
	x, err := BuildCtx(nil, d, workers)
	if err != nil {
		// A nil ctx never cancels; this is reachable only when a
		// fault-injection arm is live outside its suite or a layer arena
		// outgrows int32 offsets. Fail loudly rather than return a
		// partial index.
		panic(err)
	}
	return x
}

// BuildCtx is Build with cooperative cancellation: a non-nil ctx is
// checked at every backward-sweep layer barrier (the faultinject
// countdag.build.layer site), so an abandoned request stops within one
// layer's work and the partial tables are released to the collector with
// the returned error. On success the index is bitwise identical to
// Build's for every ctx and worker count. A layer whose arena would not
// fit int32 offsets is an error too.
func BuildCtx(ctx context.Context, d *unroll.DAG, workers int) (*Index, error) {
	if err := faultinject.Check(ctx, faultinject.SiteCountdagLayer); err != nil {
		return nil, err
	}
	x := &Index{dag: d}
	if err := limb.Fit(func(k int) (bool, error) { return x.sweep(ctx, workers, k) }); err != nil {
		return nil, err
	}
	if d.N == 0 {
		x.ktotal = x.last[d.Src.Start()*x.k:][:x.k]
	} else {
		x.ktotal = x.rows[0][len(x.rows[0])-x.k:]
	}
	x.total = limb.ToBig(x.ktotal)
	return x, nil
}

// sweep is the backward sweep at width k. It returns ok=false, leaving
// the index untouched, when a prefix sum carries out of the top limb;
// err is non-nil on cancellation, an injected fault at a layer barrier,
// or an arena too large for int32 offsets.
func (x *Index) sweep(ctx context.Context, workers, k int) (ok bool, err error) {
	d := x.dag
	n := d.N
	// next[q·k:] = subtree count of (t+1, q) while sweeping layer t.
	next := make([]uint64, d.M*k)
	if n == 0 {
		if !d.Empty() {
			next[d.Src.Start()*k] = 1
		}
	} else {
		d.AliveSet(n).ForEach(func(q int) {
			if d.Src.IsFinal(q) {
				next[q*k] = 1
			}
		})
	}
	last := next
	rows := make([][]uint64, max(n, 1))
	off := make([][]int32, n)
	var overflowed atomic.Bool
	for t := n - 1; t >= 0; t-- {
		if err := faultinject.Check(ctx, faultinject.SiteCountdagLayer); err != nil {
			return false, err
		}
		// Layer 0 holds s_start alone, filed under the start state.
		states := []int{d.Src.Start()}
		if t > 0 {
			states = d.AliveSet(t).Elems()
		}
		lay := make([]int32, d.M)
		for q := range lay {
			lay[q] = -1
		}
		size := 0
		for _, q := range states {
			w := (len(x.edgesAt(t, q)) + 1) * k
			if size > math.MaxInt32-w {
				return false, fmt.Errorf("countdag: layer %d arena exceeds int32 offsets", t)
			}
			lay[q] = int32(size)
			size += w
		}
		arena := make([]uint64, size)
		cnt := make([]uint64, d.M*k)
		nx := next // capture for the workers
		par.ForEachIndexed(len(states), workers, func(i int) {
			if overflowed.Load() {
				return
			}
			q := states[i]
			edges := x.edgesAt(t, q)
			row := arena[lay[q] : int(lay[q])+(len(edges)+1)*k]
			for j, e := range edges {
				if limb.AddAt(k, row, j+1, nx, e.To) != 0 {
					overflowed.Store(true)
					return
				}
			}
			limb.Set(cnt[q*k:(q+1)*k], row[len(edges)*k:])
		})
		if overflowed.Load() {
			return false, nil
		}
		rows[t], off[t] = arena, lay
		next = cnt
	}
	if n == 0 {
		rows[0] = make([]uint64, k) // s_start has no edges
	}
	x.k, x.rows, x.off, x.last = k, rows, off, last
	return true, nil
}

// DAG returns the DAG the index was built on.
func (x *Index) DAG() *unroll.DAG { return x.dag }

// N returns the witness length the index covers.
func (x *Index) N() int { return x.dag.N }

// Width returns the number of 64-bit limbs per count (see the package
// comment): the scratch size Draw needs.
func (x *Index) Width() int { return x.k }

// Total returns |L_n| — the number of full-length DAG paths, which equals
// the number of witnesses for an unambiguous automaton. Shared; do not
// mutate.
func (x *Index) Total() *big.Int { return x.total }

// row returns the prefix-sum row of the vertex at decision layer t (0 =
// s_start, q ignored) with deg out-edges, or nil when the vertex is dead.
func (x *Index) row(t, q, deg int) []uint64 {
	if t == 0 {
		return x.rows[0]
	}
	o := int(x.off[t][q])
	if o < 0 {
		return nil
	}
	return x.rows[t][o : o+(deg+1)*x.k]
}

// bigRow converts a prefix-sum row to fresh big.Int values.
func (x *Index) bigRow(row []uint64) []*big.Int {
	if row == nil {
		return nil
	}
	out := make([]*big.Int, len(row)/x.k)
	for i := range out {
		out[i] = limb.ToBig(row[i*x.k : (i+1)*x.k])
	}
	return out
}

// EdgeCum returns the cumulative prefix sums over the out-edges of the
// vertex at decision layer `layer` (0 = s_start, state ignored; 1..N-1 =
// (layer, state)): EdgeCum(...)[i] is the number of words through the
// first i edges, and the last entry is the vertex's subtree count (nil
// for a dead vertex). At N = 0 s_start has no edges and the table is
// [0]. Do not mutate the slice or its elements.
func (x *Index) EdgeCum(layer, state int) []*big.Int {
	return x.bigRow(x.row(layer, state, len(x.edgesAt(layer, state))))
}

// Count returns the subtree count of vertex (layer, state) for layer in
// 1..N (layer 0 is s_start: the total): the number of witness suffixes
// completing from it. At N = 0 that is 1 for the start state exactly
// when ε is accepted. Do not mutate.
func (x *Index) Count(layer, state int) *big.Int {
	k := x.k
	if layer == x.dag.N {
		return limb.ToBig(x.last[state*k : (state+1)*k])
	}
	row := x.row(layer, state, len(x.edgesAt(layer, state)))
	if row == nil {
		return new(big.Int)
	}
	return limb.ToBig(row[len(row)-k:])
}

// PathVertex follows a decision path from s_start and returns the state
// reached at layer len(path) (-1 for the empty path, i.e. s_start).
func (x *Index) PathVertex(path []int) (int, error) {
	q := -1
	for t, i := range path {
		edges := x.edgesAt(t, q)
		if i < 0 || i >= len(edges) {
			return 0, fmt.Errorf("countdag: decision %d at layer %d out of range (%d edges)", i, t, len(edges))
		}
		q = edges[i].To
	}
	return q, nil
}

// edgesAt returns the out-edges at decision layer t from state q (q = -1
// for s_start).
func (x *Index) edgesAt(t, q int) []unroll.OutEdge {
	if t == 0 {
		return x.dag.StartSuccs()
	}
	return x.dag.Succs(t, q)
}

// SubtreeSpan returns the rank of the first word of the subtree reached by
// following `path` decisions from s_start, and the subtree's word count —
// the half-open rank interval [first, first+count) is exactly the
// subtree's slice of the enumeration. A full-length path denotes a single
// word (count 1); the empty path denotes the whole range. `first` is owned
// by the caller; do not mutate `count`.
func (x *Index) SubtreeSpan(path []int) (first, count *big.Int, err error) {
	if len(path) > x.dag.N {
		return nil, nil, fmt.Errorf("countdag: path length %d exceeds %d", len(path), x.dag.N)
	}
	k := x.k
	sum := make([]uint64, k)
	q := -1
	for t, i := range path {
		edges := x.edgesAt(t, q)
		if i < 0 || i >= len(edges) {
			return nil, nil, fmt.Errorf("countdag: decision %d at layer %d out of range (%d edges)", i, t, len(edges))
		}
		limb.Add(sum, sum, x.row(t, q, len(edges))[i*k:(i+1)*k])
		q = edges[i].To
	}
	count = x.total
	if len(path) > 0 {
		count = x.Count(len(path), q)
	}
	return limb.ToBig(sum), count, nil
}

// RankOfChoices returns the rank (index in enumeration order) of the word
// at the full decision vector pos. The caller owns the result.
func (x *Index) RankOfChoices(pos []int) (*big.Int, error) {
	if len(pos) != x.dag.N {
		return nil, fmt.Errorf("countdag: decision vector has %d entries, want %d", len(pos), x.dag.N)
	}
	first, _, err := x.SubtreeSpan(pos)
	return first, err
}

// Rank returns the index of w in the enumeration order, or an error
// wrapping ErrNotMember when w is not in the language slice. For a UFA the
// accepting run of w is unique, so the decision path is reconstructed in
// O(n·(m/64 + Δ)): forward reachable sets along w, then the unique
// backward path from the accepting layer-N state.
func (x *Index) Rank(w automata.Word) (*big.Int, error) {
	n := x.dag.N
	if len(w) != n {
		return nil, fmt.Errorf("countdag: word length %d, want %d (%w)", len(w), n, ErrNotMember)
	}
	if n == 0 {
		if x.total.Sign() == 0 {
			return nil, fmt.Errorf("countdag: empty slice (%w)", ErrNotMember)
		}
		return new(big.Int), nil
	}
	sigma := x.dag.Sigma
	for i, a := range w {
		if a < 0 || a >= sigma {
			return nil, fmt.Errorf("countdag: symbol %d at position %d out of range (%w)", a, i, ErrNotMember)
		}
	}
	// Forward: reach[t] = alive states reachable via w[:t+1].
	reach := make([]*bitset.Set, n)
	for i := range reach {
		reach[i] = bitset.New(x.dag.M)
	}
	if x.dag.ReachTrace(w, reach) == nil {
		return nil, fmt.Errorf("countdag: empty word on positive length (%w)", ErrNotMember)
	}
	// The accepting layer-N state of w's run: unique for a UFA (two
	// accepting states reachable via w would be two accepting runs).
	path := make([]int, n+1)
	path[0] = -1
	q := -1
	reach[n-1].ForEach(func(p int) {
		if x.dag.Src.IsFinal(p) && q < 0 {
			q = p
		}
	})
	if q < 0 {
		return nil, fmt.Errorf("countdag: no accepting run (%w)", ErrNotMember)
	}
	path[n] = q
	// Backward: the unique predecessor in reach[t-1] stepping to path[t+1]
	// on w[t].
	for t := n - 1; t >= 1; t-- {
		prev := -1
		tgt := path[t+1]
		reach[t-1].ForEach(func(p int) {
			if prev >= 0 {
				return
			}
			for _, s := range x.dag.Src.Successors(p, w[t]) {
				if s == tgt {
					prev = p
					return
				}
			}
		})
		if prev < 0 {
			return nil, fmt.Errorf("countdag: broken run reconstruction at layer %d (%w)", t, ErrNotMember)
		}
		path[t] = prev
	}
	// Sum the prefix weights of the chosen edge at every layer (no carry:
	// every partial sum is a rank, below Total).
	k := x.k
	r := make([]uint64, k)
	for t := 0; t < n; t++ {
		edges := x.edgesAt(t, path[t])
		idx := -1
		for j, e := range edges {
			if e.Symbol == w[t] && e.To == path[t+1] {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("countdag: run leaves the pruned DAG at layer %d (%w)", t, ErrNotMember)
		}
		limb.Add(r, r, x.row(t, path[t], len(edges))[idx*k:(idx+1)*k])
	}
	return limb.ToBig(r), nil
}

// Unrank returns the word at rank r (0-based, enumeration order). The
// caller owns the result; r is not modified.
func (x *Index) Unrank(r *big.Int) (automata.Word, error) {
	_, w, _, err := x.unrank(r, false)
	return w, err
}

// UnrankChoices returns the decision vector, word and state path (path[t]
// = state at layer t, path[0] = -1) of the word at rank r — the form
// enumerators seek with.
func (x *Index) UnrankChoices(r *big.Int) (choices []int, w automata.Word, path []int, err error) {
	return x.unrank(r, true)
}

// unrank checks 0 ≤ r < Total and descends to the word at rank r, also
// recording the decision vector and state path when withPath is set.
func (x *Index) unrank(r *big.Int, withPath bool) (choices []int, w automata.Word, path []int, err error) {
	if r.Sign() < 0 || r.Cmp(x.total) >= 0 {
		return nil, nil, nil, fmt.Errorf("countdag: rank %v out of range [0, %v)", r, x.total)
	}
	rem := make([]uint64, x.k)
	limb.FromBig(rem, r)
	w = make(automata.Word, x.dag.N)
	if withPath {
		choices = make([]int, x.dag.N)
		path = make([]int, x.dag.N+1)
	}
	if err := x.descend(rem, w, choices, path); err != nil {
		return nil, nil, nil, err
	}
	return choices, w, path, nil
}

// Draw writes a uniformly random word of the slice into w (len N): one
// rank drawn by limb.Draw into rem (Width() limbs of scratch) and one
// descent. The total must be positive. It allocates nothing — the core
// of the sampling sessions.
func (x *Index) Draw(rng *rand.Rand, rem []uint64, w automata.Word) error {
	limb.Draw(rng, x.ktotal, rem)
	return x.descend(rem, w, nil, nil)
}

// descend is the unrank walk: at each vertex it finds the edge whose
// subtree holds rem and continues into it, consuming rem as scratch.
// choices and path may be nil.
func (x *Index) descend(rem []uint64, w automata.Word, choices, path []int) error {
	k, rows, off := x.k, x.rows, x.off
	if path != nil {
		path[0] = -1
	}
	q := -1
	row := rows[0]
	for t := 0; t < x.dag.N; t++ {
		edges := x.edgesAt(t, q)
		if t > 0 {
			o := int(off[t][q])
			row = rows[t][o : o+(len(edges)+1)*k]
		}
		i, ok := limb.Pick(row, rem)
		if !ok {
			i = limb.Descend(row, rem)
		}
		if i == len(edges) {
			return fmt.Errorf("countdag: inconsistent prefix sums at layer %d", t)
		}
		e := edges[i]
		w[t] = e.Symbol
		q = e.To
		if choices != nil {
			choices[t] = i
		}
		if path != nil {
			path[t+1] = q
		}
	}
	return nil
}
