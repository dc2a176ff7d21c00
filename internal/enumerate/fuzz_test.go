package enumerate

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"repro/internal/automata"
)

// FuzzDecodeCursor hardens the whole el1: token surface — serial cursors
// and multi-cell frontier tokens alike — against hostile input: malformed,
// truncated, bit-flipped and fingerprint-mismatched tokens must be
// rejected with an error, never a panic or an unbounded allocation, both
// at parse time and when replayed against an automaton.
func FuzzDecodeCursor(f *testing.F) {
	paper, length := automata.PaperExample()
	amb := automata.SubsetBlowup(3)

	// Seed corpus: every token shape the engine mints, plus garbage.
	ue, _ := NewUFA(paper, length)
	f.Add(mustToken(ue)) // fresh serial UFA cursor
	ue.Next()
	f.Add(mustToken(ue)) // mid cursor
	for {
		if _, ok := ue.Next(); !ok {
			break
		}
	}
	f.Add(mustToken(ue)) // done cursor
	ne, _ := NewNFA(amb, 5)
	ne.Next()
	f.Add(mustToken(ne))
	st, _ := NewNFAStream(amb, 5, StreamOptions{Workers: 2, Shards: 4, Ordered: true, StealThreshold: 1, MergeBudget: 4})
	st.Next()
	if tok, ok := st.Token(); ok {
		f.Add(tok) // multi-cell frontier token
	}
	st.Close()
	// Cancel-mid-enumeration checkpoints: tokens minted by sessions a
	// context stopped partway. The cancel ⇒ checkpoint contract makes
	// these legitimate resume inputs, so the fuzzer starts from them.
	preCancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	ce, _ := NewUFA(paper, length)
	cs := WithContext(preCancelled, ce)
	cs.Next() // boundary check fires immediately: cancelled at the fresh position
	f.Add(mustToken(cs))
	sctx, scancel := context.WithCancel(context.Background())
	st2, _ := NewNFAStream(amb, 5, StreamOptions{Ctx: sctx, Workers: 2, Ordered: true, MergeBudget: 4})
	st2.Next()
	scancel()
	for {
		if _, ok := st2.Next(); !ok {
			break
		}
	}
	if tok, ok := st2.Token(); ok {
		f.Add(tok) // frontier checkpoint of a cancelled parallel stream
	}
	st2.Close()
	// Rank cursors ('r' tokens): fresh, mid and a forged huge rank.
	re, _ := NewUFA(paper, length)
	if c, err := re.RankCursor(); err == nil {
		f.Add(c.Token())
	}
	re.Next()
	if c, err := re.RankCursor(); err == nil {
		f.Add(c.Token())
	}
	huge, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	f.Add(Cursor{Kind: KindUFARank, Length: length, FP: re.fp, State: CursorMid, Rank: huge}.Token())
	f.Add(Frontier{Kind: KindUFA, Length: 3, FP: 7, Segs: []FrontierSeg{
		{Prefix: []int{1}, Lo: 1, Ceil: []int{1, 0}, Pos: []int{1, 0, 0}},
	}}.Token())
	// A length-0 mid segment: ε delivered, which is not a fresh cell.
	ne0, _ := NewNFA(amb, 0)
	f0 := ne0.frontier()
	f0.Segs = []FrontierSeg{{Pos: []int{}}}
	f.Add(f0.Token())
	for _, garbage := range []string{
		"", "el1", "el1:u:", "el1:p:", "el1:x:AAAA", "el1:u:!!!", "el0:n:AAAA",
		"el1:p:AAAAAAAA", "el1:n:" + strings.Repeat("A", 512),
	} {
		f.Add(garbage)
	}

	f.Fuzz(func(t *testing.T, token string) {
		// Parsing must never panic and must bound its allocations by the
		// input size (the claimed-count guards).
		if c, err := ParseToken(token); err == nil {
			// A token that parses must re-encode to a token that parses to
			// the same cursor.
			c2, err2 := ParseToken(c.Token())
			if err2 != nil {
				t.Fatalf("re-encoded cursor rejected: %v", err2)
			}
			if c2.Kind != c.Kind || c2.Length != c.Length || c2.State != c.State || c2.FP != c.FP {
				t.Fatalf("cursor round trip %+v -> %+v", c, c2)
			}
		}
		if fr, err := ParseFrontier(token); err == nil {
			fr2, err2 := ParseFrontier(fr.Token())
			if err2 != nil {
				t.Fatalf("re-encoded frontier rejected: %v", err2)
			}
			if fr2.Kind != fr.Kind || fr2.Length != fr.Length || fr2.FP != fr.FP || len(fr2.Segs) != len(fr.Segs) {
				t.Fatalf("frontier round trip %+v -> %+v", fr, fr2)
			}
		}
		// Replaying against automata exercises the automaton-dependent
		// validation (fingerprint, ranges, viability): errors are fine,
		// panics are not. The length is a legitimate workload parameter
		// (resuming builds a length-sized precomputation, and real callers
		// such as core bound it against their instance first), so the
		// harness rejects forged lengths the same way a caller would —
		// everything else is fair game. Drain a little to push resumed
		// sessions through their open paths.
		claimed := -1
		if c, err := ParseToken(token); err == nil {
			claimed = c.Length
		} else if fr, err := ParseFrontier(token); err == nil {
			claimed = fr.Length
		}
		if claimed < 0 || claimed > 64 {
			return
		}
		for _, n := range []*automata.NFA{paper, amb} {
			s, err := Resume(n, token)
			if err != nil {
				continue
			}
			for i := 0; i < 4; i++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			s.Close()
		}
	})
}

func mustToken(s Session) string {
	tok, ok := s.Token()
	if !ok {
		panic("session must be resumable")
	}
	return tok
}
