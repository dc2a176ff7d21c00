// Package enumerate implements the two enumeration algorithms of the paper
// as a resumable, shardable streaming engine:
//
//   - UFAEnumerator is Algorithm 1 (§5.3.1): after a polynomial
//     precomputation — the ranked counting index of internal/lengthrange,
//     whose pruned edge lists are the unrolled DAG of Lemma 15 — it emits
//     the words of L_n(N) one by one with delay O(|output|), the paper's
//     notion of constant delay, by walking that DAG with a decision list.
//     For an unambiguous automaton paths and words are in bijection, so no
//     output repeats.
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
// Resume, which dispatches on the kind; ResumeUFA on a shared counting
// index) replays the position in O(n·m) and continues: for every k,
// "enumerate k words, serialize, reopen, drain" emits exactly the words an
// uninterrupted enumeration would, in the same order. A replay is the
// whole-range case of reopening a cell at a position (see Cells), and both
// algorithms run it through one routine each. Cursors of shard-restricted
// enumerators record the global position and resume the full
// enumeration.
//
// # The counting index and ranked access
//
// An Algorithm 1 enumerator's only precomputation is a ranked counting
// index of internal/lengthrange over any range covering its length
// (OpenUFA; the automaton-taking constructors build a private serial
// [n, n] one): the pruned edge lists it walks, plus per-vertex subtree
// counts and per-edge prefix sums in the same decision order, frozen and
// shared by every fork. The counts give three things. Positions have a
// rank form — an 'r' token whose payload is a single big integer, the
// number of words emitted — minted by RankCursor and resumed (Resume,
// NewUFAFrom, ResumeUFA) by SeekRank in O(n·log Δ) steps instead of a
// replay; SeekRank addresses any rank directly. Cells have exact sizes —
// Remaining reports the exact word count a cell has yet to produce, which
// the scheduler uses for steal-victim selection. And SplitSteal balances:
// it carves at the shallowest unexhausted branch (the only sound split
// layer — a deeper one would orphan that layer's remaining siblings), and
// chooses how many sibling subtrees the thief takes so the stolen share
// lands closest to half the cell's remaining words.
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
// biggest running cell — by exact remaining word count for UFA cells, by
// words-since-last-split for flashlight cells — and that cell's owner —
// cooperatively, between two Next calls — splits off alternatives at the
// shallowest unexhausted branch of its current position (SplitSteal): a
// UFA thief takes the sibling range whose exact word count is closest to
// half the cell's remainder, a flashlight thief the whole range. Either
// way the victim keeps everything up to the stolen range (its
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
// to DefaultDeliveryBatch words per lock acquisition into a private batch and
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
// emitted. Resuming the frontier on an enumerator of the same automaton
// and length (its ResumeFrontier for a serial chain, its StreamFrom for a
// new parallel stream; Resume builds one and chains) yields exactly the
// undelivered words; a serial cursor conversely reopens in parallel via
// SuffixFrontier. Parse-time validation bounds every claimed
// count by the remaining payload (see FuzzDecodeCursor), and the
// length-bound fingerprint is checked before any length-sized
// precomputation. The fingerprint is a checksum, not a MAC: services
// resuming fully untrusted tokens should additionally bound the token
// length against their own instance, as core.Instance does.
//
// # Range sessions
//
// RangeSession (rangesession.go) enumerates the union of L_n over a
// length range [lo, hi] in length-lexicographic order by chaining
// per-length sessions, and serializes its position as an el1:R: envelope
// around the in-flight per-length token — so every el1: dialect lives in
// this package. A per-length Algorithm 1 enumerator may open on the
// range's counting index (core's do) and reads its tables at its own
// length.
//
// The concurrency contract: a single enumerator must not be shared between
// goroutines, but the precomputed tables (the counting index,
// co-reachability sets) are frozen after construction and are shared by
// every shard enumerator forked from the same template; Stream.Next and
// Stream.Token are for one consumer goroutine.
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
	"slices"

	"repro/internal/automata"
	"repro/internal/bitset"
	"repro/internal/lengthrange"
	"repro/internal/par"
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
	// idx is the enumerator's whole precomputation: a ranked counting
	// index covering n. Its pruned edge lists at remaining length n−t are
	// the out-edges of layer t of Lemma 15's DAG, which the walk follows;
	// its prefix sums give O(n) rank seeking (SeekRank, RankCursor) and
	// the scheduler's exact remaining-cell sizes (Remaining, size-balanced
	// SplitSteal). Frozen; forks share it.
	idx *lengthrange.RangeIndex
	n   int
	fp  uint32

	// Iterator state: the current path as (vertex per layer, edge index per
	// layer). path[t] is the state at layer t (path[0] the start state);
	// choice[t] is the index of the edge taken out of layer t's vertex.
	// floor is the shard lock depth: choices below it are pinned and
	// backtracking stops there (0 for a full-range enumerator). lo is the
	// first admissible choice at the floor layer: a stolen cell covers
	// only the floor node's subtrees with index ≥ lo. ceil, when non-nil,
	// is the cell's lexicographic ceiling (a decision-path prefix):
	// enumeration stops before the first word whose decision vector leaves
	// the ceiling subtree — how a cell whose upper range was stolen away is
	// reopened without re-entering the stolen part.
	started bool
	done    bool
	floor   int
	lo      int
	ceil    []int
	choice  []int
	path    []int
	word    automata.Word
}

// OpenUFA opens an Algorithm 1 enumerator for witness length `length` on
// a counting index whose range covers it — core's cached index, single-
// length or the range index of a range session. The index is only read,
// so any number of enumerators may share it. Unambiguity of the index's
// automaton is the caller's contract — on an ambiguous automaton the walk
// enumerates accepting *paths*, so words may repeat.
func OpenUFA(idx *lengthrange.RangeIndex, length int) (*UFAEnumerator, error) {
	if length < idx.Lo() || length > idx.Hi() {
		return nil, fmt.Errorf("enumerate: index covers lengths [%d, %d], enumerator %d", idx.Lo(), idx.Hi(), length)
	}
	e := &UFAEnumerator{idx: idx, n: length, fp: fpFor(idx.Automaton(), length)}
	e.reset()
	return e, nil
}

// NewUFA runs the precomputation phase for N and n — a private serial
// counting index over [n, n] — and opens an enumerator on it. The
// automaton must be ε-free; see OpenUFA for the unambiguity contract
// (verify with automata.IsUnambiguous).
func NewUFA(n *automata.NFA, length int) (*UFAEnumerator, error) {
	idx, err := lengthrange.Build(n, length, length, 1)
	if err != nil {
		return nil, err
	}
	return OpenUFA(idx, length)
}

// reset puts e at the start of its range with fresh iterator state.
func (e *UFAEnumerator) reset() {
	a := e.idx.Automaton()
	e.started = false
	if e.n == 0 {
		// The single possible output is ε, handled in Next.
		e.done = !a.IsFinal(a.Start())
		e.started = e.done
		return
	}
	e.done = len(e.idx.OutEdges(e.n, a.Start())) == 0
	e.choice = make([]int, e.n)
	e.path = make([]int, e.n+1)
	e.path[0] = a.Start()
	e.word = make(automata.Word, e.n)
}

// fork shares the frozen counting index with fresh iterator state.
func (e *UFAEnumerator) fork() *UFAEnumerator {
	c := &UFAEnumerator{idx: e.idx, n: e.n, fp: e.fp}
	c.reset()
	return c
}

// SeekRank positions a fresh full-range enumerator so that the next
// emitted word is the one at the given 0-based rank in enumeration order —
// O(n·log Δ) via the counting index, no replay. r = Total() yields an
// exhausted enumerator; r beyond that is an error.
func (e *UFAEnumerator) SeekRank(r *big.Int) error {
	if e.started || e.floor != 0 || e.lo != 0 || e.ceil != nil {
		return fmt.Errorf("enumerate: SeekRank needs a fresh full-range enumerator")
	}
	total, err := e.idx.TotalAt(e.n)
	if err != nil {
		return err
	}
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
	choices, err := e.idx.UnrankChoicesAt(e.n, new(big.Int).Sub(r, bigOne))
	if err != nil {
		return err
	}
	return e.place(Shard{kind: KindUFA}, choices)
}

// place validates cell s and positions the fresh enumerator e in it, in
// place: the cell's prefix is pinned below the shard floor, and pos, when
// non-nil, is the full decision vector of the last word already emitted
// inside the cell (as a cursor or frontier token records it) — e then
// continues just after it. Every replayed decision is checked against the
// edge lists.
func (e *UFAEnumerator) place(s Shard, pos []int) error {
	if err := s.check(KindUFA, e.n, pos); err != nil {
		return err
	}
	e.ceil = s.ceil
	if e.done {
		return nil
	}
	if e.n == 0 {
		// A position records that ε was emitted: the cell is exhausted.
		e.started, e.done = pos != nil, pos != nil
		return nil
	}
	path := s.prefix
	if pos != nil {
		path = pos
	}
	for t, i := range path {
		edges := e.edgesAt(t)
		if i < 0 || i >= len(edges) {
			return fmt.Errorf("enumerate: decision %d at layer %d out of range (%d edges)", i, t, len(edges))
		}
		e.choice[t] = i
		e.word[t] = edges[i].Symbol
		e.path[t+1] = edges[i].To
	}
	e.floor, e.lo = len(s.prefix), s.lo
	e.started = pos != nil
	return nil
}

// edgesAt returns the out-edges layer t's choice indexes: those of the
// state stored on the current path, at remaining length n−t.
func (e *UFAEnumerator) edgesAt(t int) []lengthrange.Edge {
	return e.idx.OutEdges(e.n-t, e.path[t])
}

// Next implements Enumerator. The first call descends the minimal path;
// subsequent calls backtrack to the deepest vertex with an untried edge and
// descend minimally from there, exactly the decision-list walk of
// Algorithm 1.
func (e *UFAEnumerator) Next() (automata.Word, bool) {
	if e.done {
		return nil, false
	}
	n := e.n
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
	c := Cursor{Kind: KindUFA, Length: e.n, FP: e.fp}
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
// also the rank of the next word. Resuming it (Resume / NewUFAFrom)
// seeks in O(n·log Δ) instead of replaying a decision vector. Like
// Cursor, a shard-restricted enumerator yields the global position of its
// last emitted word.
func (e *UFAEnumerator) RankCursor() (Cursor, error) {
	n := e.n
	c := Cursor{Kind: KindUFARank, Length: n, FP: e.fp, State: CursorMid, Rank: new(big.Int)}
	switch {
	case e.done:
		total, err := e.idx.TotalAt(n)
		if err != nil {
			return Cursor{}, err
		}
		c.Rank = total
	case !e.started:
		// rank 0
	default:
		r, err := e.idx.RankOfChoicesAt(n, e.choice)
		if err != nil {
			return Cursor{}, err
		}
		c.Rank.Add(r, bigOne)
	}
	return c, nil
}

// Remaining returns the exact number of words this enumerator has yet to
// emit (within its cell bounds); ok=false only when the index rejects the
// enumerator's own position, which a valid enumerator never holds. The
// scheduler uses it for exact steal-victim selection. The caller owns the
// result.
func (e *UFAEnumerator) Remaining() (*big.Int, bool) {
	rem := new(big.Int)
	if e.done {
		return rem, true
	}
	n := e.n
	if n == 0 {
		if !e.started {
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
	endFirst, endCount, err := e.idx.SubtreeSpanAt(n, end)
	if err != nil {
		return nil, false
	}
	limit := endFirst.Add(endFirst, endCount)
	// cur = rank of the next word to emit.
	var cur *big.Int
	if e.started {
		r, err := e.idx.RankOfChoicesAt(n, e.choice)
		if err != nil {
			return nil, false
		}
		cur = r.Add(r, bigOne)
	} else {
		first, _, err := e.idx.SubtreeSpanAt(n, e.choice[:e.floor])
		if err != nil {
			return nil, false
		}
		cur = first
		if e.floor < n {
			// The floor vertex: path[floor] was set when the cell opened.
			cum := e.idx.EdgeCumAt(n, e.floor, e.path[e.floor])
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

// ResumeUFA reopens an Algorithm 1 enumeration on a counting index
// covering the cursor's length, at the position a decision ('u') or rank
// ('r') cursor records: a decision vector is replayed in O(n), a rank is
// seeked in O(n·log Δ). The fingerprint is checked against the index's
// automaton before the replay, and every decision index during it. The
// continued enumeration is bitwise identical to the uninterrupted one.
func ResumeUFA(idx *lengthrange.RangeIndex, c Cursor) (*UFAEnumerator, error) {
	e, err := OpenUFA(idx, c.Length)
	if err != nil {
		return nil, err
	}
	if c.FP != e.fp {
		return nil, fmt.Errorf("enumerate: cursor fingerprint %08x does not match automaton at this length (%08x)", c.FP, e.fp)
	}
	switch {
	case c.Kind == KindUFARank && c.Rank == nil:
		err = fmt.Errorf("enumerate: rank cursor carries no rank")
	case c.Kind == KindUFARank:
		err = e.SeekRank(c.Rank)
	case c.Kind != KindUFA:
		err = fmt.Errorf("enumerate: cursor kind %q, want %q", c.Kind, KindUFA)
	case c.State == CursorFresh:
	case c.State == CursorDone, c.State == CursorMid && c.Length == 0:
		// Exhausted, or ε was emitted: one more Next returns false.
		e.started, e.done = true, true
	case c.State != CursorMid:
		err = fmt.Errorf("enumerate: unknown cursor state %d", c.State)
	case e.done:
		err = fmt.Errorf("enumerate: mid cursor for an empty language slice")
	case len(c.Pos) != c.Length:
		err = fmt.Errorf("enumerate: cursor has %d decisions, want %d", len(c.Pos), c.Length)
	default:
		err = e.place(Shard{kind: KindUFA}, c.Pos)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NewUFAFrom reopens an Algorithm 1 enumeration at the position recorded in
// a decision ('u') or rank ('r') cursor, as produced by Cursor, RankCursor
// or ParseToken — ResumeUFA on a private serial [n, n] index. The
// fingerprint binds the length and is checked before the index is built,
// so neither a cross-automaton token nor one with a tampered length field
// buys a length-sized precomputation.
func NewUFAFrom(n *automata.NFA, c Cursor) (*UFAEnumerator, error) {
	if c.Kind != KindUFA && c.Kind != KindUFARank {
		return nil, fmt.Errorf("enumerate: cursor kind %q, want %q or %q", c.Kind, KindUFA, KindUFARank)
	}
	if err := ValidateCursor(n, c); err != nil {
		return nil, err
	}
	idx, err := lengthrange.Build(n, c.Length, c.Length, 1)
	if err != nil {
		return nil, err
	}
	return ResumeUFA(idx, c)
}

// ValidateCursor runs the fingerprint check every resume path performs:
// it reports an error unless the cursor was minted on this automaton at
// its embedded length. Cheap (one automaton hash), so callers that open
// their enumerator on a shared counting index can validate before
// resolving it, without paying a length-sized precomputation for a forged
// token.
func ValidateCursor(n *automata.NFA, c Cursor) error {
	if fp := fpFor(n, c.Length); c.FP != fp {
		return fmt.Errorf("enumerate: cursor fingerprint %08x does not match automaton at this length (%08x)", c.FP, fp)
	}
	return nil
}

// shardCells is the expansion both Shards run: starting from the whole
// range, whose walk state is root, it replaces the shallowest cell shorter
// than n by its children until there are at least target cells or every
// cell is a full word, so the cells are balanced in depth. children calls
// add once per child of the cell at depth d with walk state s, in
// enumeration order, with the decision or symbol extending the prefix and
// the child's walk state. The whole range (done = true, n = 0 or
// target ≤ 1) is a single cell.
func shardCells[S any](kind byte, n, target int, done bool, root S, children func(d int, s S, add func(step int, child S))) []Shard {
	type cell struct {
		prefix []int
		s      S
	}
	cells := []cell{{s: root}}
	for !done && len(cells) < target {
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
		var kids []cell
		children(d, c.s, func(step int, child S) {
			p := make([]int, d+1)
			copy(p, c.prefix)
			p[d] = step
			kids = append(kids, cell{prefix: p, s: child})
		})
		cells = slices.Concat(cells[:best], kids, cells[best+1:])
	}
	out := make([]Shard, len(cells))
	for i, c := range cells {
		out[i] = Shard{kind: kind, prefix: c.prefix}
	}
	return out
}

// Shards splits the enumeration range into at least min(target, |cells|)
// disjoint decision-prefix cells whose concatenation in shard order is the
// serial enumeration order (target < 1 is treated as 1); a cell's children
// are its vertex's pruned out-edges.
func (e *UFAEnumerator) Shards(target int) []Shard {
	return shardCells(KindUFA, e.n, target, e.done, e.idx.Automaton().Start(), func(d, q int, add func(int, int)) {
		for i, ed := range e.idx.OutEdges(e.n-d, q) {
			add(i, ed.To)
		}
	})
}

// OpenShardAt returns a fresh enumerator, sharing this one's
// precomputation, placed in one cell produced by Shards (or carved off by
// SplitSteal): at the cell's start when pos is nil, else just after pos,
// the full decision vector of the last word already emitted inside the
// cell, as a frontier token records it. It emits exactly the rest of the
// cell's words, in serial order; pos must lie inside the cell.
func (e *UFAEnumerator) OpenShardAt(s Shard, pos []int) (*UFAEnumerator, error) {
	c := e.fork()
	if err := c.place(s, pos); err != nil {
		return nil, err
	}
	return c, nil
}

// SplitSteal carves the upper part of this enumerator's remaining range
// off into a new cell, always branching at the shallowest not-yet-
// exhausted layer at or above the current position (respecting the
// cell's ceiling — already-stolen upper ranges are never re-stolen; any
// deeper branch layer would orphan that layer's remaining siblings, since
// neither the risen victim floor nor the single-branch thief shard could
// ever reach them). The counting index chooses HOW MANY sibling subtrees
// the thief takes: the lower bound j whose stolen word count is closest
// to half the cell's remaining words. A full take (j = choice+1) raises
// the victim's floor past the branch; a partial take instead caps the
// victim with a new ceiling ending at subtree j−1, so the words in
// between stay with the victim. Either way the receiver's remaining words
// immediately precede the stolen cell's in canonical order. ok=false when
// the remaining range is a single subtree with no detachable sibling. The
// receiver must have emitted at least one word and must be between two
// Next calls.
func (e *UFAEnumerator) SplitSteal() (Shard, bool) {
	if !e.started || e.done {
		return Shard{}, false
	}
	n := e.n
	rem, ok := e.Remaining()
	if !ok || rem.Sign() <= 0 {
		return Shard{}, false
	}
	// Exclusive end of the cell's rank interval, for ceiling-truncated
	// subtree sizes.
	var ceilLimit *big.Int
	if e.ceil != nil {
		first, count, err := e.idx.SubtreeSpanAt(n, e.ceil)
		if err != nil {
			return Shard{}, false
		}
		ceilLimit = first.Add(first, count)
	}
	// base tracks the first rank of the subtree pinned by e.choice[:t].
	base, _, err := e.idx.SubtreeSpanAt(n, e.choice[:e.floor])
	if err != nil {
		return Shard{}, false
	}
	// The shallowest detachable layer.
	split := -1
	var hi int
	truncated := false
	onCeil := pathOnCeil(e.choice, e.ceil, e.floor)
	for t := e.floor; t < n; t++ {
		cum := e.idx.EdgeCumAt(n, t, e.path[t])
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
		return Shard{}, false
	}
	cum := e.idx.EdgeCumAt(n, split, e.path[split])
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
		return Shard{}, false
	}
	s := Shard{
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
	return s, true
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
// when a partial split bounded the victim with a ceiling instead — that
// tighter ceiling. The scheduler records it as the cell's new ceiling so
// suspended cells reopen without re-entering stolen ranges.
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
// in the cursor. The fingerprint is checked before the precomputation, and
// the viability of every prefix step during the replay; the continued
// enumeration is bitwise identical to the uninterrupted one.
func NewNFAFrom(n *automata.NFA, c Cursor) (*NFAEnumerator, error) {
	if c.Kind != KindNFA {
		return nil, fmt.Errorf("enumerate: cursor kind %q, want %q", c.Kind, KindNFA)
	}
	if err := ValidateCursor(n, c); err != nil {
		return nil, err
	}
	e, err := NewNFA(n, c.Length)
	if err != nil {
		return nil, err
	}
	switch {
	case c.State == CursorFresh:
	case c.State == CursorDone:
		e.started, e.done = true, true
	case c.State != CursorMid:
		err = fmt.Errorf("enumerate: unknown cursor state %d", c.State)
	case e.done:
		err = fmt.Errorf("enumerate: mid cursor for an empty language slice")
	case len(c.Pos) != c.Length:
		err = fmt.Errorf("enumerate: cursor word has %d symbols, want %d", len(c.Pos), c.Length)
	case c.Length == 0:
		// ε was emitted: the next Next ends the slice.
		e.started = true
	default:
		err = e.place(Shard{kind: KindNFA}, c.Pos)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// place is (*UFAEnumerator).place for the flashlight: it validates cell s
// and positions the fresh enumerator e in it, pos being the last word
// already emitted inside the cell (nil = the cell's start). Every replayed
// symbol is checked for viability.
func (e *NFAEnumerator) place(s Shard, pos []int) error {
	if err := s.check(KindNFA, e.length, pos); err != nil {
		return err
	}
	e.ceil = s.ceil
	if e.done {
		return nil
	}
	if e.length == 0 {
		// A position records that ε was emitted: the cell is exhausted.
		e.started, e.done = pos != nil, pos != nil
		return nil
	}
	path := s.prefix
	if pos != nil {
		path = pos
	}
	for t, a := range path {
		if a < 0 || a >= e.sigma {
			return fmt.Errorf("enumerate: symbol %d at position %d out of range", a, t)
		}
		e.n.StepSet(e.scratch, e.sets[t], a)
		e.scratch.IntersectWith(e.coReach[t+1])
		if e.scratch.Empty() {
			return fmt.Errorf("enumerate: word is not viable at position %d", t)
		}
		e.word[t] = automata.Symbol(a)
		e.sets[t+1].CopyFrom(e.scratch)
		e.nextSym[t] = a + 1
	}
	e.floor, e.lo, e.depth = len(s.prefix), s.lo, len(path)
	if pos == nil {
		e.nextSym[e.floor] = s.lo
	}
	e.started = pos != nil
	return nil
}

// Shards splits the enumeration range into at least min(target, |cells|)
// disjoint viable-prefix cells; in shard order the cells concatenate to the
// serial (lexicographic) enumeration order. A cell's children are its
// viable symbols, each with its prefix's reachable set.
func (e *NFAEnumerator) Shards(target int) []Shard {
	return shardCells(KindNFA, e.length, target, e.done, e.sets[0], func(d int, reach *bitset.Set, add func(int, *bitset.Set)) {
		for a := 0; a < e.sigma; a++ {
			e.n.StepSet(e.scratch, reach, a)
			e.scratch.IntersectWith(e.coReach[d+1])
			if !e.scratch.Empty() {
				add(a, e.scratch.Clone())
			}
		}
	})
}

// OpenShardAt is (*UFAEnumerator).OpenShardAt for the flashlight: pos,
// when non-nil, is the last word already emitted inside the cell, and the
// shard enumerator emits the rest of the cell's words in lexicographic
// order.
func (e *NFAEnumerator) OpenShardAt(s Shard, pos []int) (*NFAEnumerator, error) {
	c := e.fork()
	if err := c.place(s, pos); err != nil {
		return nil, err
	}
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
