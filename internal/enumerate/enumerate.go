// Package enumerate implements the two enumeration algorithms of the paper
// as a resumable, shardable streaming engine:
//
//   - UFAEnumerator is Algorithm 1 (§5.3.1): after a polynomial
//     precomputation that builds the pruned unrolled DAG of Lemma 15, it
//     emits the words of L_n(N) one by one with delay O(|output|) — the
//     paper's notion of constant delay — by walking the DAG with a decision
//     list. For an unambiguous automaton paths and words are in bijection,
//     so no output repeats.
//
//   - NFAEnumerator is the polynomial-delay enumerator of Theorem 16 for
//     arbitrary NFAs, realized as the standard "flashlight" search over the
//     self-reducible structure of §5.2: it extends prefixes symbol by
//     symbol, tracking the reachable state set of each prefix and pruning
//     prefixes with no accepting completion (a co-reachability table makes
//     the test O(m²/64) per step). Delay is O(n·|Σ|·m²/w) between
//     consecutive outputs, with no duplicates for any NFA.
//
// Both types implement Enumerator (Next) and Session (Next + Token +
// Close): the self-reducible structure of §5.2 means an enumerator's whole
// position is a small cursor, so any enumeration can be paused, serialized
// and resumed elsewhere, and the language can be split into independent
// prefix cells enumerated in parallel (Stream).
//
// # Cursors and resume tokens
//
// A Cursor captures an enumerator's position between two Next calls; its
// Token is a compact printable string. The format is
//
//	el1:<kind>:<base64url payload>
//
// where kind is 'u' (Algorithm 1), 'n' (flashlight) or 'r' (rank, see
// below) and the payload is uvarint(fingerprint) ∘ uvarint(length) ∘
// state byte ∘ position ints (uvarint each). The position is the
// per-layer decision-index vector for a UFA and the last emitted word for
// an NFA — both of size O(n log), the logspace cursor the paper's
// self-reduction promises. The fingerprint is a 32-bit hash of the
// automaton's transition structure mixed with the witness length, so a
// token cannot be resumed against a different automaton — or with a
// tampered length — undetected. Resuming with NewUFAFrom/NewNFAFrom (or
// Resume, which dispatches on the kind) replays the position in O(n·m)
// and continues: for every k, "enumerate k words, serialize, reopen,
// drain" emits exactly the words an uninterrupted enumeration would, in
// the same order. Cursors of shard-restricted enumerators record the
// global position and resume the full enumeration.
//
// # The counting index and ranked access
//
// Algorithm 1 enumerators can carry the ranked counting index of
// internal/countdag (EnsureIndex/AttachIndex): per-vertex subtree counts
// and per-edge prefix sums over the same DAG, frozen and shared by every
// fork. It upgrades three things. Positions gain a rank form — an 'r'
// token whose payload is a single big integer, the number of words
// emitted — minted by RankCursor and resumed by NewUFAFromRank/SeekRank
// in O(n·log Δ) steps instead of a replay; any rank is directly
// addressable (NewUFAAt). Cells gain exact sizes — Remaining reports the
// exact word count a cell has yet to produce, which the scheduler uses
// for steal-victim selection in place of the words-since-last-split
// proxy. And SplitSteal gains a balanced mode: still carving at the
// shallowest unexhausted branch (the only sound split layer — a deeper
// one would orphan that layer's remaining siblings), but choosing how
// many sibling subtrees the thief takes so the stolen share lands closest
// to half the cell's remaining words.
//
// # Cells
//
// Shards splits L_n(N) into disjoint prefix cells: flashlight branches (or
// Algorithm 1 decision subtrees) never overlap, so the cells partition the
// language and the concatenation of the cells in shard order is exactly the
// serial enumeration order. A cell (Shard) is in general the triple
// (prefix, lo, ceil): the words extending prefix whose next decision is
// ≥ lo, up to the end of the ceil subtree (both bounds arise from
// work-stealing splits; Shards-produced cells are whole subtrees). A cell's
// position is a cursor, so any cell can be suspended to (shard, position)
// and reopened with OpenShardAt — the self-reduction working at cell
// granularity.
//
// # The work-stealing scheduler
//
// Stream enumerates cells across Workers goroutines with dynamic
// re-sharding. Workers claim cells from an ordered list (nearest the
// consume point first); an idle worker with nothing to claim flags the
// biggest running cell — by exact remaining word count when the cells
// carry the counting index (UFA streams), by words-since-last-split
// otherwise — and that cell's owner —
// cooperatively, between two Next calls — splits off alternatives at the
// shallowest unexhausted branch of its current position (SplitSteal);
// with the index the thief takes the sibling range whose exact word count
// is closest to half the cell's remainder, without it the whole range.
// Either way the victim keeps everything up to the stolen range (its
// floor or ceiling records the new bound), the thief cell covers
// everything after, and the thief is linked immediately after the victim,
// keeping the list in canonical language order at all times. StealThreshold paces the splits:
// a cell must produce that many words between splits before it is
// eligible again. The result is that mass-skewed languages — where any
// static partition is dominated by one cell — keep every worker busy
// (experiment E16).
//
// # The bounded ordered merge
//
// Ordered mode delivers the cells' outputs in canonical order, bitwise
// identical to serial enumeration. MergeBudget caps the words buffered
// ahead of the consumer, across all cells: a non-head producer that would
// overrun the budget suspends its cell (spill-to-cursor: the cell collapses
// to its shard descriptor plus spill cursor; buffered words stay until
// delivered), and the head producer reclaims room by dropping the buffer of
// the furthest suspended cell, whose words are re-produced when the
// scheduler returns to it — the ceiling guarantees re-production never
// re-enters stolen ranges. Peak buffering therefore never exceeds the
// budget, regardless of skew; unordered (throughput) mode simply applies
// the budget as backpressure. Delivery is batched: the consumer pops up
// to DeliveryBatch words per lock acquisition into a private batch and
// hands them out lock-free; popped-but-unconsumed words still count as
// undelivered in resume tokens.
//
// # Frontier tokens
//
// A Stream's Token serializes the multi-cell frontier as
//
//	el1:p:<base64url payload>
//
// with payload uvarint(fingerprint) ∘ uvarint(length) ∘ kind byte ∘
// uvarint(|segments|) ∘ segments, each segment being uvarint(|prefix|) ∘
// prefix ∘ uvarint(lo) ∘ uvarint(|ceil|) ∘ ceil ∘ state byte ∘ position
// ints when mid — one entry per not-fully-delivered cell, in canonical
// order, carrying the last delivered position of cells that already
// emitted. Resuming the frontier (ResumeFrontier for a serial chain,
// NewUFAStreamFrom/NewNFAStreamFrom for a new parallel stream) yields
// exactly the undelivered words; a serial cursor conversely reopens in
// parallel via SuffixFrontier. Parse-time validation bounds every claimed
// count by the remaining payload (see FuzzDecodeCursor), and the
// length-bound fingerprint is checked before any length-sized
// precomputation. The fingerprint is a checksum, not a MAC: services
// resuming fully untrusted tokens should additionally bound the token
// length against their own instance, as core.Instance does.
//
// The concurrency contract: a single enumerator must not be shared between
// goroutines, but the precomputed tables (DAG adjacency, co-reachability
// sets) are frozen after construction and are shared by every shard
// enumerator forked from the same template; Stream.Next and Stream.Token
// are for one consumer goroutine.
//
// # Cancellation: cancel ⇒ checkpoint
//
// Sessions cancel cooperatively, never in the per-word hot loop (the
// constant-delay guarantee is the point of the paper): a serial session
// wrapped by WithContext checks its context every DefaultDeliveryBatch
// words, and a parallel Stream checks StreamOptions.Ctx when its consumer
// pops a delivery batch, so a cancelled session stops within one batch of
// the cancel. The contract on that stop is "cancel ⇒ checkpoint, not
// corruption": Err reports ctx.Err(), and Token still mints the session's
// true resume position — the exact undelivered frontier for a parallel
// stream — so resuming the token continues bitwise where the cancel cut
// off, skipping and repeating nothing. The same discipline covers the
// deterministic fault-injection sites (internal/faultinject) at the
// delivery-batch, steal-split and merge-spill transitions: an injected
// fault surfaces through Err exactly like a cancellation and leaves the
// same valid checkpoint (internal/faultsuite asserts both, plus goroutine
// hygiene, under the NFA_FAULTS-gated registry).
package enumerate

import (
	"fmt"
	"math/big"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/countdag"
	"repro/internal/par"
	"repro/internal/unroll"
)

// Enumerator is the common iterator interface of both algorithms.
type Enumerator interface {
	// Next returns the next witness, or ok=false when exhausted. The
	// returned slice is only valid until the following call to Next; use
	// CollectWords (or copy) before retaining outputs.
	Next() (w automata.Word, ok bool)
}

// Session is an enumeration handle that can be paused and resumed: both
// serial enumerators and parallel Streams implement it.
type Session interface {
	Enumerator
	// Token returns a resume token for the position after the last
	// delivered output: a single-position cursor for serial sessions, a
	// multi-cell frontier token for parallel streams. ok=false is
	// reserved for sessions that cannot be resumed at all (none of the
	// engine's own sessions; external implementations may differ).
	Token() (token string, ok bool)
	// Err reports a failure that ended the session early (always nil for
	// the serial enumerators).
	Err() error
	// Close releases the session's resources; for a Stream it stops the
	// worker goroutines. Safe to call more than once.
	Close()
}

// Collect drains an enumerator into a slice of formatted strings, stopping
// after limit outputs (limit ≤ 0 means no bound). A helper for tests, CLIs
// and examples.
func Collect(alpha *automata.Alphabet, e Enumerator, limit int) []string {
	var out []string
	for {
		w, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, alpha.FormatWord(w))
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// CollectWords drains an enumerator into deep-copied words, stopping after
// limit outputs (limit ≤ 0 means no bound). Next's slice is only valid
// until the following call, so any caller retaining raw outputs across
// iterations must copy — this helper is that copy.
func CollectWords(e Enumerator, limit int) []automata.Word {
	var out []automata.Word
	for {
		w, ok := e.Next()
		if !ok {
			return out
		}
		cp := make(automata.Word, len(w))
		copy(cp, w)
		out = append(out, cp)
		if limit > 0 && len(out) >= limit {
			return out
		}
	}
}

// Fingerprint hashes the transition structure of an automaton (states,
// alphabet, start, finals, transitions) to 32 bits. Resume tokens embed it
// mixed with the witness length (fpFor), so a cursor minted on one
// automaton — or with one length — fails loudly when replayed against
// another.
func Fingerprint(n *automata.NFA) uint32 {
	m := n.NumStates()
	sigma := n.Alphabet().Size()
	h := par.Mix64(uint64(m)<<32 ^ uint64(sigma)<<8 ^ uint64(n.Start()))
	for q := 0; q < m; q++ {
		if n.IsFinal(q) {
			h = par.Mix64(h ^ 0xF1A1<<32 ^ uint64(q))
		}
		for a := 0; a < sigma; a++ {
			for _, p := range n.Successors(q, a) {
				h = par.Mix64(h ^ uint64(q)<<40 ^ uint64(a)<<20 ^ uint64(p))
			}
		}
	}
	return uint32(h ^ h>>32)
}

// fpFor is the fingerprint tokens actually embed: Fingerprint bound to the
// witness length. Resume paths validate it before running any
// length-sized precomputation, so a token whose length field was tampered
// with (or corrupted) is rejected for the price of one automaton hash.
// This is a checksum against accidents and casual tampering, not a MAC —
// there is no secret, so a caller resuming fully untrusted tokens should
// additionally bound Length against its own instance, exactly as
// core.Instance does.
func fpFor(n *automata.NFA, length int) uint32 {
	return Fingerprint(n) ^ uint32(par.Mix64(uint64(length)^0xF00D5EED)>>17)
}

// UFAEnumerator enumerates L_n(N) for an unambiguous N with constant delay
// (Algorithm 1 of the paper). It implements Session; it must not be shared
// between goroutines.
type UFAEnumerator struct {
	dag *unroll.DAG
	fp  uint32
	// idx is the ranked counting index over dag (nil until EnsureIndex or
	// AttachIndex): it upgrades the enumerator with O(n) rank seeking
	// (SeekRank, RankCursor) and gives the work-stealing scheduler exact
	// remaining-cell sizes (Remaining, size-balanced SplitSteal). Frozen
	// once set; forks share it.
	idx *countdag.Index

	// Iterator state: the current path as (vertex per layer, edge index per
	// layer). path[t] is the state at layer t (t ≥ 1); choice[t] is the
	// index of the edge taken out of layer t-1's vertex. floor is the
	// shard lock depth: choices below it are pinned and backtracking stops
	// there (0 for a full-range enumerator). lo is the first admissible
	// choice at the floor layer: a stolen cell covers only the floor
	// node's subtrees with index ≥ lo. ceil, when non-nil, is the cell's
	// lexicographic ceiling (a decision-path prefix): enumeration stops
	// before the first word whose decision vector leaves the ceiling
	// subtree — how a cell whose upper range was stolen away is reopened
	// without re-entering the stolen part.
	started bool
	done    bool
	floor   int
	lo      int
	ceil    []int
	choice  []int
	path    []int
	word    automata.Word
}

// NewUFA runs the precomputation phase for N and n: the Lemma 15 DAG with
// both forward and backward pruning, plus forward adjacency. The automaton
// must be ε-free; unambiguity is the caller's contract (verify with
// automata.IsUnambiguous) — an ambiguous automaton enumerates accepting
// *paths*, so words may repeat.
func NewUFA(n *automata.NFA, length int) (*UFAEnumerator, error) {
	dag, err := unroll.Build(n, length, unroll.Options{PruneBackward: true})
	if err != nil {
		return nil, err
	}
	e := &UFAEnumerator{dag: dag, fp: fpFor(n, length)}
	e.reset()
	return e, nil
}

// reset puts e at the start of its range with fresh iterator state.
func (e *UFAEnumerator) reset() {
	n := e.dag.N
	e.started = false
	e.done = e.dag.Empty()
	if n == 0 {
		// The single possible output is ε, handled in Next.
		e.started = e.done
		return
	}
	e.choice = make([]int, n)
	e.path = make([]int, n+1)
	e.word = make(automata.Word, n)
}

// fork clones the frozen precomputation (DAG, adjacency and counting
// index are shared) with fresh iterator state.
func (e *UFAEnumerator) fork() *UFAEnumerator {
	c := &UFAEnumerator{dag: e.dag, fp: e.fp, idx: e.idx}
	c.reset()
	return c
}

// EnsureIndex returns the enumerator's ranked counting index, building it
// on first call (serially; one backward pass over the DAG). Not
// safe to call concurrently with other methods — attach the index before
// sharing forks (Stream does this before launching workers).
func (e *UFAEnumerator) EnsureIndex() *countdag.Index {
	if e.idx == nil {
		e.idx = countdag.Build(e.dag, 1)
	}
	return e.idx
}

// AttachIndex installs an index built elsewhere — typically core's shared
// instance index. The index must cover the same (automaton, length,
// backward-pruned) unrolling; countdag indexes are position-valid across
// identically-built DAGs.
func (e *UFAEnumerator) AttachIndex(idx *countdag.Index) error {
	if idx == nil {
		return fmt.Errorf("enumerate: nil index")
	}
	if idx.N() != e.dag.N {
		return fmt.Errorf("enumerate: index covers length %d, enumerator %d", idx.N(), e.dag.N)
	}
	e.idx = idx
	return nil
}

// SeekRank positions a fresh full-range enumerator so that the next
// emitted word is the one at the given 0-based rank in enumeration order —
// O(n·log Δ) via the counting index (built on demand), no replay. r =
// Total() yields an exhausted enumerator; r beyond that is an error.
func (e *UFAEnumerator) SeekRank(r *big.Int) error {
	if e.started || e.floor != 0 || e.lo != 0 || e.ceil != nil {
		return fmt.Errorf("enumerate: SeekRank needs a fresh full-range enumerator")
	}
	idx := e.EnsureIndex()
	total := idx.Total()
	if r.Sign() < 0 || r.Cmp(total) > 0 {
		return fmt.Errorf("enumerate: seek rank %v out of range [0, %v]", r, total)
	}
	switch {
	case r.Sign() == 0:
		return nil // fresh position already denotes rank 0
	case r.Cmp(total) == 0:
		e.started, e.done = true, true
		return nil
	}
	// Position = the word at rank r-1 was emitted.
	prev := new(big.Int).Sub(r, big.NewInt(1))
	choices, w, path, err := idx.UnrankChoices(prev)
	if err != nil {
		return err
	}
	copy(e.choice, choices)
	copy(e.word, w)
	copy(e.path, path)
	e.started = true
	return nil
}

// Count of distinct outputs is |L_n| for a UFA; exposed via the dag for
// diagnostics.
func (e *UFAEnumerator) DAG() *unroll.DAG { return e.dag }

// edgesAt returns the out-edges layer t's choice indexes: those of the
// start vertex for t=0, else of the state stored on the current path.
func (e *UFAEnumerator) edgesAt(t int) []unroll.OutEdge {
	if t == 0 {
		return e.dag.StartSuccs()
	}
	return e.dag.Succs(t, e.path[t])
}

// Next implements Enumerator. The first call descends the minimal path;
// subsequent calls backtrack to the deepest vertex with an untried edge and
// descend minimally from there, exactly the decision-list walk of
// Algorithm 1.
func (e *UFAEnumerator) Next() (automata.Word, bool) {
	if e.done {
		return nil, false
	}
	n := e.dag.N
	if n == 0 {
		// Only ε can be output, once.
		e.done = true
		if !e.started {
			e.started = true
			return automata.Word{}, true
		}
		return nil, false
	}
	var start int
	if e.started {
		// Backtrack: find deepest layer (at or above the shard floor)
		// whose edge choice can advance.
		t := n - 1
		for t >= e.floor {
			if e.choice[t]+1 < len(e.edgesAt(t)) {
				e.choice[t]++
				break
			}
			t--
		}
		if t < e.floor {
			e.done = true
			return nil, false
		}
		start = t
	} else {
		e.started = true
		start = e.floor
		if start == n {
			// Full-path shard: the single word was built when the shard
			// was opened.
			if exceedsCeil(e.choice, e.ceil) {
				e.done = true
				return nil, false
			}
			return e.word, true
		}
		if e.lo >= len(e.edgesAt(start)) {
			// A stolen cell whose admissible range is empty.
			e.done = true
			return nil, false
		}
		e.choice[start] = e.lo
	}
	// Descend minimally from layer `start` (its choice is already set).
	for t := start; t < n; t++ {
		if t > start {
			e.choice[t] = 0
		}
		edge := e.edgesAt(t)[e.choice[t]]
		e.word[t] = edge.Symbol
		e.path[t+1] = edge.To
	}
	if exceedsCeil(e.choice, e.ceil) {
		// Positions grow lexicographically, so the first one past the
		// ceiling ends the cell.
		e.done = true
		return nil, false
	}
	return e.word, true
}

// exceedsCeil reports whether a decision path has left the ceiling subtree
// (nil ceil means unbounded). Positions increase lexicographically over an
// enumeration, so the first position past the ceiling exhausts the cell.
func exceedsCeil(pos, ceil []int) bool {
	for i, c := range ceil {
		if pos[i] != c {
			return pos[i] > c
		}
	}
	return false
}

// Cursor returns the enumerator's position after the last emitted word.
// For a shard-restricted enumerator the cursor still denotes the global
// position: resuming it continues the full enumeration, not the shard.
func (e *UFAEnumerator) Cursor() Cursor {
	c := Cursor{Kind: KindUFA, Length: e.dag.N, FP: e.fp}
	switch {
	case e.done:
		c.State = CursorDone
	case !e.started:
		c.State = CursorFresh
	default:
		c.State = CursorMid
		c.Pos = append([]int(nil), e.choice...)
	}
	return c
}

// Token implements Session: the serialized Cursor.
func (e *UFAEnumerator) Token() (string, bool) { return e.Cursor().Token(), true }

// RankCursor returns the enumerator's position as a rank cursor: the
// number of words already emitted before the current position, which is
// also the rank of the next word. Resuming it (Resume / NewUFAFromRank)
// seeks in O(n·log Δ) instead of replaying a decision vector. The index
// is built on demand; like Cursor, a shard-restricted enumerator yields
// the global position of its last emitted word.
func (e *UFAEnumerator) RankCursor() (Cursor, error) {
	idx := e.EnsureIndex()
	c := Cursor{Kind: KindUFARank, Length: e.dag.N, FP: e.fp, State: CursorMid, Rank: new(big.Int)}
	switch {
	case e.done:
		c.Rank.Set(idx.Total())
	case !e.started:
		// rank 0
	default:
		r, err := idx.RankOfChoices(e.choice)
		if err != nil {
			return Cursor{}, err
		}
		c.Rank.Add(r, bigOne)
	}
	return c, nil
}

// Remaining returns the exact number of words this enumerator has yet to
// emit (within its cell bounds), when a counting index is attached;
// ok=false without one. The scheduler uses it for exact steal-victim
// selection. The caller owns the result.
func (e *UFAEnumerator) Remaining() (*big.Int, bool) {
	if e.idx == nil {
		return nil, false
	}
	rem := new(big.Int)
	if e.done {
		return rem, true
	}
	n := e.dag.N
	if n == 0 {
		if !e.started && !e.dag.Empty() {
			rem.SetInt64(1)
		}
		return rem, true
	}
	// The cell's rank interval ends just past its ceiling subtree (or its
	// pinned prefix subtree when unbounded above).
	end := e.ceil
	if end == nil {
		end = e.choice[:e.floor]
	}
	endFirst, endCount, err := e.idx.SubtreeSpan(end)
	if err != nil {
		return nil, false
	}
	limit := endFirst.Add(endFirst, endCount)
	// cur = rank of the next word to emit.
	var cur *big.Int
	if e.started {
		r, err := e.idx.RankOfChoices(e.choice)
		if err != nil {
			return nil, false
		}
		cur = r.Add(r, bigOne)
	} else {
		first, _, err := e.idx.SubtreeSpan(e.choice[:e.floor])
		if err != nil {
			return nil, false
		}
		cur = first
		if e.floor < n {
			q, err := e.idx.PathVertex(e.choice[:e.floor])
			if err != nil {
				return nil, false
			}
			cum := e.idx.EdgeCum(e.floor, q)
			lo := e.lo
			if lo > len(cum)-1 {
				lo = len(cum) - 1
			}
			cur.Add(cur, cum[lo])
		}
	}
	rem.Sub(limit, cur)
	if rem.Sign() < 0 {
		rem.SetInt64(0)
	}
	return rem, true
}

var bigOne = big.NewInt(1)

// Err implements Session; serial enumerators never fail after construction.
func (e *UFAEnumerator) Err() error { return nil }

// Close implements Session; a serial enumerator holds no resources.
func (e *UFAEnumerator) Close() {}

// NewUFAFrom reopens an Algorithm 1 enumeration at the position recorded in
// the cursor (as produced by (*UFAEnumerator).Cursor or ParseToken). The
// automaton must be the one the cursor was minted on: the fingerprint, the
// length and every decision index are validated during the replay, and any
// mismatch is an error. The continued enumeration is bitwise identical to
// the uninterrupted one.
func NewUFAFrom(n *automata.NFA, c Cursor) (*UFAEnumerator, error) {
	if c.Kind != KindUFA {
		return nil, fmt.Errorf("enumerate: cursor kind %q, want %q", c.Kind, KindUFA)
	}
	// Fingerprint first: it is cheap, while building the DAG is not, and
	// fpFor binds the length — so neither a cross-automaton token nor one
	// with a tampered length field buys a length-sized precomputation.
	if fp := fpFor(n, c.Length); c.FP != fp {
		return nil, fmt.Errorf("enumerate: cursor fingerprint %08x does not match automaton at this length (%08x)", c.FP, fp)
	}
	e, err := NewUFA(n, c.Length)
	if err != nil {
		return nil, err
	}
	switch c.State {
	case CursorFresh:
		return e, nil
	case CursorDone:
		e.started, e.done = true, true
		return e, nil
	case CursorMid:
		if c.Length == 0 {
			// ε was emitted; one more Next returns false.
			e.started = true
			e.done = true
			return e, nil
		}
		if e.done {
			return nil, fmt.Errorf("enumerate: mid cursor for an empty language slice")
		}
		if len(c.Pos) != c.Length {
			return nil, fmt.Errorf("enumerate: cursor has %d decisions, want %d", len(c.Pos), c.Length)
		}
		for t := 0; t < c.Length; t++ {
			edges := e.edgesAt(t)
			if c.Pos[t] < 0 || c.Pos[t] >= len(edges) {
				return nil, fmt.Errorf("enumerate: cursor decision %d at layer %d out of range (%d edges)", c.Pos[t], t, len(edges))
			}
			e.choice[t] = c.Pos[t]
			edge := edges[c.Pos[t]]
			e.word[t] = edge.Symbol
			e.path[t+1] = edge.To
		}
		e.started = true
		return e, nil
	}
	return nil, fmt.Errorf("enumerate: unknown cursor state %d", c.State)
}

// NewUFAAt is NewUFA positioned so the next emitted word is the one at
// the given 0-based rank of the enumeration order — random access into the
// stream via the counting index, no replay. rank = |L_n| yields an
// exhausted session.
func NewUFAAt(n *automata.NFA, length int, rank *big.Int) (*UFAEnumerator, error) {
	e, err := NewUFA(n, length)
	if err != nil {
		return nil, err
	}
	if err := e.SeekRank(rank); err != nil {
		return nil, err
	}
	return e, nil
}

// ValidateCursor runs the fingerprint check every resume path performs:
// it reports an error unless the cursor was minted on this automaton at
// its embedded length. Cheap (one automaton hash), so callers that build
// their own enumerator — e.g. to attach a shared counting index before
// seeking — can validate first without paying a length-sized
// precomputation for a forged token.
func ValidateCursor(n *automata.NFA, c Cursor) error {
	if fp := fpFor(n, c.Length); c.FP != fp {
		return fmt.Errorf("enumerate: cursor fingerprint %08x does not match automaton at this length (%08x)", c.FP, fp)
	}
	return nil
}

// NewUFAFromRank reopens an Algorithm 1 enumeration from a rank cursor
// (kind 'r', as produced by RankCursor or ParseToken): the fingerprint is
// validated first (it binds the length, so a forged token buys no
// length-sized precomputation), then the position is seeked in O(n·log Δ)
// instead of replayed. The continued enumeration is bitwise identical to
// one that replayed a decision cursor to the same position.
func NewUFAFromRank(n *automata.NFA, c Cursor) (*UFAEnumerator, error) {
	if c.Kind != KindUFARank {
		return nil, fmt.Errorf("enumerate: cursor kind %q, want %q", c.Kind, KindUFARank)
	}
	if err := ValidateCursor(n, c); err != nil {
		return nil, err
	}
	if c.Rank == nil {
		return nil, fmt.Errorf("enumerate: rank cursor carries no rank")
	}
	return NewUFAAt(n, c.Length, c.Rank)
}

// Shards splits the enumeration range into at least min(target, |cells|)
// disjoint decision-prefix cells whose concatenation in shard order is the
// serial enumeration order. The shallowest cells are expanded first, so the
// cells are balanced in depth. target < 1 is treated as 1.
func (e *UFAEnumerator) Shards(target int) []Shard {
	if target < 1 {
		target = 1
	}
	n := e.dag.N
	if e.dag.Empty() || n == 0 || target == 1 {
		return []Shard{{kind: KindUFA}}
	}
	type cell struct {
		prefix []int
		src    int // state at layer len(prefix); unused at depth 0
	}
	cells := []cell{{}}
	for len(cells) < target {
		best := -1
		for i, c := range cells {
			if len(c.prefix) < n && (best < 0 || len(c.prefix) < len(cells[best].prefix)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cells[best]
		d := len(c.prefix)
		var edges []unroll.OutEdge
		if d == 0 {
			edges = e.dag.StartSuccs()
		} else {
			edges = e.dag.Succs(d, c.src)
		}
		children := make([]cell, len(edges))
		for i, ed := range edges {
			p := make([]int, d+1)
			copy(p, c.prefix)
			p[d] = i
			children[i] = cell{prefix: p, src: ed.To}
		}
		next := make([]cell, 0, len(cells)+len(children)-1)
		next = append(next, cells[:best]...)
		next = append(next, children...)
		next = append(next, cells[best+1:]...)
		cells = next
	}
	out := make([]Shard, len(cells))
	for i, c := range cells {
		out[i] = Shard{kind: KindUFA, prefix: c.prefix}
	}
	return out
}

// OpenShard returns a fresh enumerator restricted to one cell produced by
// Shards (or carved off by SplitSteal), sharing this enumerator's
// precomputation. The shard enumerator emits exactly the cell's words, in
// serial order.
func (e *UFAEnumerator) OpenShard(s Shard) (*UFAEnumerator, error) {
	return e.OpenShardAt(s, nil)
}

// OpenShardAt is OpenShard positioned mid-cell: pos, when non-nil, is the
// full decision vector of the last word already emitted inside the cell
// (as recorded in a frontier token), and the returned enumerator continues
// just after it. pos must lie inside the cell; every decision is validated
// against the DAG during the replay.
func (e *UFAEnumerator) OpenShardAt(s Shard, pos []int) (*UFAEnumerator, error) {
	if s.kind != KindUFA {
		return nil, fmt.Errorf("enumerate: shard kind %q, want %q", s.kind, KindUFA)
	}
	if s.lo < 0 {
		return nil, fmt.Errorf("enumerate: negative shard lower bound %d", s.lo)
	}
	c := e.fork()
	n := c.dag.N
	if len(s.prefix) > n {
		return nil, fmt.Errorf("enumerate: shard prefix length %d exceeds %d", len(s.prefix), n)
	}
	if len(s.ceil) > n {
		return nil, fmt.Errorf("enumerate: shard ceiling length %d exceeds %d", len(s.ceil), n)
	}
	c.ceil = s.ceil
	if c.done {
		return c, nil
	}
	if n == 0 {
		if pos != nil {
			// ε was already emitted; the cell is exhausted.
			c.started, c.done = true, true
		}
		return c, nil
	}
	for t, i := range s.prefix {
		edges := c.edgesAt(t)
		if i < 0 || i >= len(edges) {
			return nil, fmt.Errorf("enumerate: shard decision %d at layer %d out of range (%d edges)", i, t, len(edges))
		}
		c.choice[t] = i
		edge := edges[i]
		c.word[t] = edge.Symbol
		c.path[t+1] = edge.To
	}
	c.floor = len(s.prefix)
	c.lo = s.lo
	if pos == nil {
		return c, nil
	}
	if len(pos) != n {
		return nil, fmt.Errorf("enumerate: shard position has %d decisions, want %d", len(pos), n)
	}
	for t := 0; t < c.floor; t++ {
		if pos[t] != s.prefix[t] {
			return nil, fmt.Errorf("enumerate: shard position leaves the cell at layer %d", t)
		}
	}
	if c.floor < n && pos[c.floor] < s.lo {
		return nil, fmt.Errorf("enumerate: shard position below the cell's lower bound at layer %d", c.floor)
	}
	for t := 0; t < n; t++ {
		edges := c.edgesAt(t)
		if pos[t] < 0 || pos[t] >= len(edges) {
			return nil, fmt.Errorf("enumerate: shard position decision %d at layer %d out of range (%d edges)", pos[t], t, len(edges))
		}
		c.choice[t] = pos[t]
		edge := edges[pos[t]]
		c.word[t] = edge.Symbol
		c.path[t+1] = edge.To
	}
	c.started = true
	return c, nil
}

// SplitSteal carves the upper part of this enumerator's remaining range
// off into a new cell, always branching at the shallowest not-yet-
// exhausted layer at or above the current position (respecting the
// cell's ceiling — already-stolen upper ranges are never re-stolen; any
// deeper branch layer would orphan the shallow layer's remaining
// siblings). Without a counting index the thief takes every detachable
// sibling there — a steal-most split; with one (EnsureIndex/AttachIndex,
// which Stream arranges) it takes the sibling range whose exact word
// count is closest to half the cell's remaining words — a steal-half
// split, the receiver keeping the rest under a tightened ceiling. Either
// way the receiver's remaining words immediately precede the stolen
// cell's in canonical order. ok=false when the remaining range is a
// single subtree with no detachable sibling. The receiver must have
// emitted at least one word and must be between two Next calls.
func (e *UFAEnumerator) SplitSteal() (Shard, bool) {
	if !e.started || e.done {
		return Shard{}, false
	}
	if e.idx != nil {
		if s, ok, fellBack := e.splitBalanced(); !fellBack {
			return s, ok
		}
	}
	return e.splitShallowest()
}

// splitShallowest is the index-free split: the first layer with a
// detachable sibling, which hands the thief the largest possible share.
func (e *UFAEnumerator) splitShallowest() (Shard, bool) {
	n := e.dag.N
	onCeil := pathOnCeil(e.choice, e.ceil, e.floor)
	for t := e.floor; t < n; t++ {
		hi := len(e.edgesAt(t)) - 1
		if onCeil && t < len(e.ceil) && e.ceil[t] < hi {
			hi = e.ceil[t]
		}
		if e.choice[t]+1 <= hi {
			s := Shard{
				kind:   KindUFA,
				prefix: append([]int(nil), e.choice[:t]...),
				lo:     e.choice[t] + 1,
				ceil:   e.ceil,
			}
			e.floor = t + 1
			return s, true
		}
		onCeil = onCeil && t < len(e.ceil) && e.choice[t] == e.ceil[t]
	}
	return Shard{}, false
}

// splitBalanced splits at the same branch layer as splitShallowest — the
// shallowest detachable one; any deeper layer would orphan that layer's
// unexhausted siblings, since neither the risen victim floor nor the
// single-branch thief shard could ever reach them — but uses the counting
// index to choose HOW MANY sibling subtrees the thief takes: the lower
// bound j with the stolen word count closest to half the cell's remaining
// words. A full take (j = choice+1) raises the victim's floor exactly
// like the shallowest split; a partial take instead caps the victim with
// a new ceiling ending at subtree j−1, so the words in between stay with
// the victim. fellBack=true means the index computation could not run
// (caller falls back to splitShallowest).
func (e *UFAEnumerator) splitBalanced() (s Shard, ok, fellBack bool) {
	n := e.dag.N
	rem, okRem := e.Remaining()
	if !okRem || rem.Sign() <= 0 {
		return Shard{}, false, true
	}
	// Exclusive end of the cell's rank interval, for ceiling-truncated
	// subtree sizes.
	var ceilLimit *big.Int
	if e.ceil != nil {
		first, count, err := e.idx.SubtreeSpan(e.ceil)
		if err != nil {
			return Shard{}, false, true
		}
		ceilLimit = first.Add(first, count)
	}
	// base tracks the first rank of the subtree pinned by e.choice[:t].
	base, _, err := e.idx.SubtreeSpan(e.choice[:e.floor])
	if err != nil {
		return Shard{}, false, true
	}
	// The shallowest detachable layer, exactly as splitShallowest finds it.
	split := -1
	var hi int
	truncated := false
	onCeil := pathOnCeil(e.choice, e.ceil, e.floor)
	for t := e.floor; t < n; t++ {
		q := -1
		if t > 0 {
			q = e.path[t]
		}
		cum := e.idx.EdgeCum(t, q)
		hi = len(cum) - 2 // last edge index
		truncated = false
		if onCeil && t < len(e.ceil) && e.ceil[t] <= hi {
			hi = e.ceil[t]
			// The ceiling cuts into the subtree at index hi only when it
			// pins decisions beyond this layer.
			truncated = len(e.ceil) > t+1
		}
		if e.choice[t]+1 <= hi {
			split = t
			break
		}
		onCeil = onCeil && t < len(e.ceil) && e.choice[t] == e.ceil[t]
		base.Add(base, cum[e.choice[t]])
	}
	if split < 0 {
		return Shard{}, false, false
	}
	q := -1
	if split > 0 {
		q = e.path[split]
	}
	cum := e.idx.EdgeCum(split, q)
	// Exclusive end of the stealable range at the split layer.
	cellEnd := new(big.Int)
	if truncated && ceilLimit != nil {
		cellEnd.Set(ceilLimit)
	} else {
		cellEnd.Add(base, cum[hi+1])
	}
	// Pick j minimizing |2·stolen(j) − remaining|; stolen(j) = cellEnd −
	// (base + cum[j]) decreases in j.
	bestJ := -1
	var bestDiff *big.Int
	stolen := new(big.Int)
	for j := e.choice[split] + 1; j <= hi; j++ {
		stolen.Sub(cellEnd, base)
		stolen.Sub(stolen, cum[j])
		if stolen.Sign() <= 0 {
			break
		}
		diff := new(big.Int).Lsh(stolen, 1)
		diff.Sub(diff, rem).Abs(diff)
		if bestJ < 0 || diff.Cmp(bestDiff) < 0 {
			bestJ, bestDiff = j, diff
		}
	}
	if bestJ < 0 {
		return Shard{}, false, false
	}
	s = Shard{
		kind:   KindUFA,
		prefix: append([]int(nil), e.choice[:split]...),
		lo:     bestJ,
		ceil:   e.ceil, // the thief inherits the cell's old upper bound
	}
	if bestJ == e.choice[split]+1 {
		// Full take: the victim keeps only its current subtree.
		e.floor = split + 1
	} else {
		// Partial take: the victim keeps subtrees up to j−1 — its new
		// upper bound, recorded as a ceiling (the floor must stay so it
		// can still backtrack to those siblings).
		e.ceil = append(append([]int(nil), e.choice[:split]...), bestJ-1)
	}
	return s, true, false
}

// pathOnCeil reports whether pos[:depth] still tracks the ceiling path (so
// the ceiling bounds the admissible alternatives at depth).
func pathOnCeil(pos, ceil []int, depth int) bool {
	if ceil == nil {
		return false
	}
	if depth > len(ceil) {
		depth = len(ceil)
	}
	for i := 0; i < depth; i++ {
		if pos[i] != ceil[i] {
			return false
		}
	}
	return true
}

// PinnedPath returns the exact upper bound of the enumerator's remaining
// range after SplitSteal: the path pinned by the risen shard floor, or —
// when a partial balanced split bounded the victim with a ceiling instead
// — that tighter ceiling. The scheduler records it as the cell's new
// ceiling so suspended cells reopen without re-entering stolen ranges.
func (e *UFAEnumerator) PinnedPath() []int {
	return append([]int(nil), victimCeil(e.ceil, e.choice[:e.floor])...)
}

// NFAEnumerator enumerates L_n(N) for an arbitrary ε-free NFA with
// polynomial delay and no duplicates (Theorem 16). It implements Session;
// it must not be shared between goroutines.
type NFAEnumerator struct {
	n      *automata.NFA
	length int
	sigma  int
	fp     uint32
	// coReach[t] = states at depth t having an accepting completion of
	// length exactly length−t. Frozen after construction and shared by
	// forked shard enumerators.
	coReach []*bitset.Set

	// Iterator state: the prefix, the reachable-set stack, and the next
	// symbol to try at each depth. floor is the shard lock depth: the
	// prefix below it is pinned and backtracking stops there. lo is the
	// first admissible symbol at the floor depth (stolen cells cover only
	// the floor node's subtrees on symbols ≥ lo); ceil, when non-nil, is
	// the cell's lexicographic ceiling word-prefix (see the UFA variant).
	word    automata.Word
	sets    []*bitset.Set
	nextSym []int
	depth   int
	floor   int
	lo      int
	ceil    []int
	done    bool
	started bool
	scratch *bitset.Set
}

// NewNFA runs the (polynomial) preprocessing for the flashlight search.
func NewNFA(n *automata.NFA, length int) (*NFAEnumerator, error) {
	if n.HasEpsilon() {
		return nil, fmt.Errorf("enumerate: automaton has ε-transitions")
	}
	if length < 0 {
		return nil, fmt.Errorf("enumerate: negative length %d", length)
	}
	m := n.NumStates()
	e := &NFAEnumerator{n: n, length: length, sigma: n.Alphabet().Size(), fp: fpFor(n, length)}
	e.coReach = make([]*bitset.Set, length+1)
	e.coReach[length] = n.FinalSet()
	for t := length - 1; t >= 0; t-- {
		s := bitset.New(m)
		for q := 0; q < m; q++ {
			for a := 0; a < e.sigma; a++ {
				for _, p := range n.Successors(q, a) {
					if e.coReach[t+1].Has(p) {
						s.Add(q)
					}
				}
			}
		}
		e.coReach[t] = s
	}
	e.reset()
	return e, nil
}

// reset puts e at the start of its range with fresh iterator state.
func (e *NFAEnumerator) reset() {
	m := e.n.NumStates()
	e.word = make(automata.Word, e.length)
	e.sets = make([]*bitset.Set, e.length+1)
	for i := range e.sets {
		e.sets[i] = bitset.New(m)
	}
	e.sets[0].Add(e.n.Start())
	e.sets[0].IntersectWith(e.coReach[0])
	e.nextSym = make([]int, e.length+1)
	e.scratch = bitset.New(m)
	e.depth = 0
	e.floor = 0
	e.started = false
	e.done = e.sets[0].Empty()
}

// fork clones the frozen precomputation (automaton and co-reachability are
// shared) with fresh iterator state.
func (e *NFAEnumerator) fork() *NFAEnumerator {
	c := &NFAEnumerator{n: e.n, length: e.length, sigma: e.sigma, fp: e.fp, coReach: e.coReach}
	c.reset()
	return c
}

// Next implements Enumerator with the flashlight invariant: e.sets[t] is
// the set of states reachable via word[:t] that still have an accepting
// completion, so every maintained prefix extends to at least one witness.
func (e *NFAEnumerator) Next() (automata.Word, bool) {
	if e.done {
		return nil, false
	}
	if e.started && e.depth == e.length {
		// Leave the previous leaf before searching on.
		e.depth--
		if e.depth < e.floor {
			e.done = true
			return nil, false
		}
	}
	e.started = true
	for {
		if e.depth == e.length {
			// Invariant guarantees acceptance here (coReach[length] = F).
			if exceedsCeil(e.word, e.ceil) {
				// Words grow lexicographically, so the first one past the
				// ceiling ends the cell.
				e.done = true
				return nil, false
			}
			return e.word, true
		}
		a := e.nextSym[e.depth]
		if a >= e.sigma {
			// Exhausted this depth; backtrack (not past the shard floor).
			e.nextSym[e.depth] = 0
			e.depth--
			if e.depth < e.floor {
				e.done = true
				return nil, false
			}
			continue
		}
		e.nextSym[e.depth] = a + 1
		e.n.StepSet(e.scratch, e.sets[e.depth], a)
		e.scratch.IntersectWith(e.coReach[e.depth+1])
		if e.scratch.Empty() {
			continue
		}
		e.word[e.depth] = a
		e.sets[e.depth+1].CopyFrom(e.scratch)
		e.nextSym[e.depth+1] = 0
		e.depth++
	}
}

// Cursor returns the enumerator's position after the last emitted word
// (which is the position: the flashlight resumes from the last output).
// As with the UFA cursor, shard-restricted enumerators yield the global
// position.
func (e *NFAEnumerator) Cursor() Cursor {
	c := Cursor{Kind: KindNFA, Length: e.length, FP: e.fp}
	switch {
	case e.done:
		c.State = CursorDone
	case !e.started:
		c.State = CursorFresh
	default:
		c.State = CursorMid
		c.Pos = make([]int, e.length)
		for i, s := range e.word {
			c.Pos[i] = int(s)
		}
	}
	return c
}

// Token implements Session: the serialized Cursor.
func (e *NFAEnumerator) Token() (string, bool) { return e.Cursor().Token(), true }

// Remaining implements the scheduler's exact-size hook: counting the
// remaining words of an ambiguous NFA cell would be #P-hard (which is why
// the FPRAS exists), so the flashlight always answers ok=false and the
// scheduler falls back to the words-since-last-split proxy.
func (e *NFAEnumerator) Remaining() (*big.Int, bool) { return nil, false }

// Err implements Session; serial enumerators never fail after construction.
func (e *NFAEnumerator) Err() error { return nil }

// Close implements Session; a serial enumerator holds no resources.
func (e *NFAEnumerator) Close() {}

// NewNFAFrom reopens a flashlight enumeration just after the word recorded
// in the cursor. The fingerprint and the viability of every prefix step are
// validated during the replay; the continued enumeration is bitwise
// identical to the uninterrupted one.
func NewNFAFrom(n *automata.NFA, c Cursor) (*NFAEnumerator, error) {
	if c.Kind != KindNFA {
		return nil, fmt.Errorf("enumerate: cursor kind %q, want %q", c.Kind, KindNFA)
	}
	// Fingerprint before the (length-sized) precomputation, as in
	// NewUFAFrom.
	if fp := fpFor(n, c.Length); c.FP != fp {
		return nil, fmt.Errorf("enumerate: cursor fingerprint %08x does not match automaton at this length (%08x)", c.FP, fp)
	}
	e, err := NewNFA(n, c.Length)
	if err != nil {
		return nil, err
	}
	switch c.State {
	case CursorFresh:
		return e, nil
	case CursorDone:
		e.started, e.done = true, true
		return e, nil
	case CursorMid:
		if e.done {
			return nil, fmt.Errorf("enumerate: mid cursor for an empty language slice")
		}
		if len(c.Pos) != c.Length {
			return nil, fmt.Errorf("enumerate: cursor word has %d symbols, want %d", len(c.Pos), c.Length)
		}
		for t := 0; t < c.Length; t++ {
			a := c.Pos[t]
			if a < 0 || a >= e.sigma {
				return nil, fmt.Errorf("enumerate: cursor symbol %d at position %d out of range", a, t)
			}
			e.n.StepSet(e.scratch, e.sets[t], a)
			e.scratch.IntersectWith(e.coReach[t+1])
			if e.scratch.Empty() {
				return nil, fmt.Errorf("enumerate: cursor word is not a viable prefix at position %d", t)
			}
			e.word[t] = automata.Symbol(a)
			e.sets[t+1].CopyFrom(e.scratch)
			e.nextSym[t] = a + 1
		}
		e.nextSym[c.Length] = 0
		e.depth = c.Length
		e.started = true
		return e, nil
	}
	return nil, fmt.Errorf("enumerate: unknown cursor state %d", c.State)
}

// Shards splits the enumeration range into at least min(target, |cells|)
// disjoint viable-prefix cells; in shard order the cells concatenate to the
// serial (lexicographic) enumeration order. target < 1 is treated as 1.
func (e *NFAEnumerator) Shards(target int) []Shard {
	if target < 1 {
		target = 1
	}
	if e.done || e.length == 0 || target == 1 {
		return []Shard{{kind: KindNFA}}
	}
	m := e.n.NumStates()
	type cell struct {
		prefix []int
		reach  *bitset.Set
	}
	scratch := bitset.New(m)
	cells := []cell{{reach: e.sets[0]}}
	for len(cells) < target {
		best := -1
		for i, c := range cells {
			if len(c.prefix) < e.length && (best < 0 || len(c.prefix) < len(cells[best].prefix)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := cells[best]
		d := len(c.prefix)
		var children []cell
		for a := 0; a < e.sigma; a++ {
			e.n.StepSet(scratch, c.reach, a)
			scratch.IntersectWith(e.coReach[d+1])
			if scratch.Empty() {
				continue
			}
			p := make([]int, d+1)
			copy(p, c.prefix)
			p[d] = a
			reach := bitset.New(m)
			reach.CopyFrom(scratch)
			children = append(children, cell{prefix: p, reach: reach})
		}
		next := make([]cell, 0, len(cells)+len(children)-1)
		next = append(next, cells[:best]...)
		next = append(next, children...)
		next = append(next, cells[best+1:]...)
		cells = next
	}
	out := make([]Shard, len(cells))
	for i, c := range cells {
		out[i] = Shard{kind: KindNFA, prefix: c.prefix}
	}
	return out
}

// OpenShard returns a fresh enumerator restricted to one cell produced by
// Shards (or carved off by SplitSteal), sharing this enumerator's
// precomputation. The shard enumerator emits exactly the cell's words, in
// lexicographic order.
func (e *NFAEnumerator) OpenShard(s Shard) (*NFAEnumerator, error) {
	return e.OpenShardAt(s, nil)
}

// OpenShardAt is OpenShard positioned mid-cell: pos, when non-nil, is the
// last word already emitted inside the cell (as recorded in a frontier
// token), and the returned enumerator continues just after it. The prefix
// and every position step are checked for viability during the replay.
func (e *NFAEnumerator) OpenShardAt(s Shard, pos []int) (*NFAEnumerator, error) {
	if s.kind != KindNFA {
		return nil, fmt.Errorf("enumerate: shard kind %q, want %q", s.kind, KindNFA)
	}
	if s.lo < 0 {
		return nil, fmt.Errorf("enumerate: negative shard lower bound %d", s.lo)
	}
	c := e.fork()
	if len(s.prefix) > c.length {
		return nil, fmt.Errorf("enumerate: shard prefix length %d exceeds %d", len(s.prefix), c.length)
	}
	if len(s.ceil) > c.length {
		return nil, fmt.Errorf("enumerate: shard ceiling length %d exceeds %d", len(s.ceil), c.length)
	}
	c.ceil = s.ceil
	if c.done {
		return c, nil
	}
	if c.length == 0 {
		if pos != nil {
			// ε was already emitted; the cell is exhausted.
			c.started, c.done = true, true
		}
		return c, nil
	}
	for t, a := range s.prefix {
		if a < 0 || a >= c.sigma {
			return nil, fmt.Errorf("enumerate: shard symbol %d at position %d out of range", a, t)
		}
		c.n.StepSet(c.scratch, c.sets[t], a)
		c.scratch.IntersectWith(c.coReach[t+1])
		if c.scratch.Empty() {
			return nil, fmt.Errorf("enumerate: shard prefix is not viable at position %d", t)
		}
		c.word[t] = automata.Symbol(a)
		c.sets[t+1].CopyFrom(c.scratch)
		c.nextSym[t] = a + 1
	}
	c.floor = len(s.prefix)
	c.lo = s.lo
	c.depth = c.floor
	c.nextSym[c.floor] = s.lo
	if pos == nil {
		return c, nil
	}
	if len(pos) != c.length {
		return nil, fmt.Errorf("enumerate: shard position has %d symbols, want %d", len(pos), c.length)
	}
	for t := 0; t < c.floor; t++ {
		if pos[t] != s.prefix[t] {
			return nil, fmt.Errorf("enumerate: shard position leaves the cell at position %d", t)
		}
	}
	if c.floor < c.length && pos[c.floor] < s.lo {
		return nil, fmt.Errorf("enumerate: shard position below the cell's lower bound at position %d", c.floor)
	}
	for t := c.floor; t < c.length; t++ {
		a := pos[t]
		if a < 0 || a >= c.sigma {
			return nil, fmt.Errorf("enumerate: shard position symbol %d at position %d out of range", a, t)
		}
		c.n.StepSet(c.scratch, c.sets[t], a)
		c.scratch.IntersectWith(c.coReach[t+1])
		if c.scratch.Empty() {
			return nil, fmt.Errorf("enumerate: shard position is not a viable word at position %d", t)
		}
		c.word[t] = automata.Symbol(a)
		c.sets[t+1].CopyFrom(c.scratch)
		c.nextSym[t] = a + 1
	}
	c.nextSym[c.length] = 0
	c.depth = c.length
	c.started = true
	return c, nil
}

// SplitSteal carves the upper part of this enumerator's remaining range off
// into a new cell, under the same contract as (*UFAEnumerator).SplitSteal:
// the stolen shard covers the viable alternatives at the shallowest
// not-yet-exhausted depth of the current position (respecting the cell's
// ceiling), and the receiver's floor rises past that branch point.
func (e *NFAEnumerator) SplitSteal() (Shard, bool) {
	if !e.started || e.done {
		return Shard{}, false
	}
	pos := make([]int, e.length)
	for i, a := range e.word {
		pos[i] = int(a)
	}
	onCeil := pathOnCeil(pos, e.ceil, e.floor)
	for t := e.floor; t < e.length; t++ {
		hi := e.sigma - 1
		if onCeil && t < len(e.ceil) && e.ceil[t] < hi {
			hi = e.ceil[t]
		}
		for a := e.nextSym[t]; a <= hi; a++ {
			e.n.StepSet(e.scratch, e.sets[t], a)
			e.scratch.IntersectWith(e.coReach[t+1])
			if e.scratch.Empty() {
				continue
			}
			s := Shard{kind: KindNFA, prefix: append([]int(nil), pos[:t]...), lo: a, ceil: e.ceil}
			e.floor = t + 1
			return s, true
		}
		onCeil = onCeil && t < len(e.ceil) && pos[t] == e.ceil[t]
	}
	return Shard{}, false
}

// PinnedPath returns the word prefix pinned by the shard floor — the upper
// bound of the remaining range after a split (see the UFA variant).
func (e *NFAEnumerator) PinnedPath() []int {
	pinned := make([]int, e.floor)
	for i := 0; i < e.floor; i++ {
		pinned[i] = int(e.word[i])
	}
	return pinned
}
