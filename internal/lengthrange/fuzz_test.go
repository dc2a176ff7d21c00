package lengthrange_test

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
)

// FuzzRangeCursor hardens the el1:R: envelope against hostile input:
// malformed, truncated, bit-flipped, bound-inconsistent and
// forged-length tokens must be rejected with an error — never a panic,
// an unbounded allocation, or a resumed session the mint path could not
// have produced. Resume follows the same fingerprint-before-precompute
// discipline as the enumerate tokens (PR 3): the envelope fingerprint is
// checked before the per-length factory runs, the factory validates the
// inner token's own fingerprint before any length-sized precomputation,
// and the harness bounds the claimed lengths exactly as a real caller
// (core) bounds its requested range.
func FuzzRangeCursor(f *testing.F) {
	all := automata.All(automata.Binary())
	paper, paperLen := automata.PaperExample()
	fpAll := enumerate.Fingerprint(all)

	// Seed corpus: every envelope shape the session mints, plus forgeries.
	rs, err := enumerate.NewRangeSession(0, 3, fpAll, ufaFactory(all))
	if err != nil {
		f.Fatal(err)
	}
	if tok, ok := rs.Token(); ok {
		f.Add(tok) // fresh envelope (inner fresh token at lo)
	}
	rs.Next()
	rs.Next()
	if tok, ok := rs.Token(); ok {
		f.Add(tok) // mid envelope
	}
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
	}
	if tok, ok := rs.Token(); ok {
		f.Add(tok) // done envelope
	}
	rs.Close()
	// A cancel-mid-range checkpoint: the envelope a context-cancelled
	// session mints at its failure frontier (cancel ⇒ checkpoint) is a
	// legitimate resume input, so the fuzzer starts from it.
	cctx, cancel := context.WithCancel(context.Background())
	crs, err := enumerate.NewRangeSession(0, 3, fpAll, ufaFactory(all))
	if err != nil {
		f.Fatal(err)
	}
	crs.SetContext(cctx)
	crs.Next()
	cancel()
	for {
		if _, ok := crs.Next(); !ok {
			break
		}
	}
	if tok, ok := crs.Token(); ok {
		f.Add(tok)
	}
	crs.Close()
	// A mid envelope whose inner token is a rank cursor.
	re, _ := enumerate.NewUFA(paper, paperLen)
	if c, err := re.RankCursor(); err == nil {
		f.Add(enumerate.RangeCursor{FP: enumerate.Fingerprint(paper), Lo: paperLen, Hi: paperLen + 2, Cur: paperLen, Inner: c.Token()}.Token())
	}
	// Forged-length envelopes: a huge cur (truncated-bound DoS probe) and
	// an inner token whose own length disagrees with cur.
	f.Add(enumerate.RangeCursor{FP: fpAll, Lo: 0, Hi: 1 << 30, Cur: 1 << 29, Inner: "el1:u:AAAA"}.Token())
	ue, _ := enumerate.NewUFA(all, 2)
	ue.Next()
	if tok, ok := ue.Token(); ok {
		f.Add(enumerate.RangeCursor{FP: fpAll, Lo: 0, Hi: 5, Cur: 4, Inner: tok}.Token()) // inner length 2 ≠ cur 4
	}
	// Truncated and garbage payloads.
	for _, garbage := range []string{
		"", "el1:R:", "el1:R:AA", "el1:R:!!!", "el1:p:AAAA",
		"el1:R:" + strings.Repeat("A", 512),
	} {
		f.Add(garbage)
	}

	f.Fuzz(func(t *testing.T, token string) {
		c, err := enumerate.ParseRangeToken(token)
		if err != nil {
			return
		}
		// Parse invariants the decoder must have enforced.
		if c.Lo > c.Hi || c.Cur < c.Lo || c.Cur > c.Hi {
			t.Fatalf("decoder let inconsistent bounds through: %+v", c)
		}
		if c.Done != (c.Inner == "") {
			t.Fatalf("decoder let inconsistent done/inner shape through: %+v", c)
		}
		// A token that parses must re-encode to an identical cursor.
		c2, err := enumerate.ParseRangeToken(c.Token())
		if err != nil {
			t.Fatalf("re-encoded token rejected: %v", err)
		}
		if c2 != c {
			t.Fatalf("token round trip %+v -> %+v", c, c2)
		}
		// Resume against real automata: errors are fine, panics are not.
		// The claimed lengths are a workload parameter (each per-length
		// open builds a length-sized precomputation), so the harness
		// bounds them the way core's caller-supplied range would.
		if c.Hi > 16 {
			return
		}
		for _, n := range []*automata.NFA{all, paper} {
			// The factory enforces the inner token's embedded length like
			// core.openSessionAt does: a mismatch must surface as an error.
			factory := func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
				if cursor != "" {
					cl, err := innerLength(cursor)
					if err != nil {
						return nil, err
					}
					if cl != length {
						// Forged envelope: cur disagrees with the inner
						// token's own length — rejected, like core does.
						return nil, fmt.Errorf("inner token length %d does not match session length %d", cl, length)
					}
					return enumerate.Resume(n, cursor)
				}
				if seek != nil {
					return enumerate.NewUFAAt(n, length, seek)
				}
				return enumerate.NewUFA(n, length)
			}
			s, err := enumerate.ResumeRangeSession(c, enumerate.Fingerprint(n), factory)
			if err != nil {
				continue
			}
			for i := 0; i < 4; i++ {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			if tok, ok := s.Token(); ok {
				if _, err := enumerate.ParseRangeToken(tok); err != nil {
					t.Fatalf("resumed session minted unparseable token %q: %v", tok, err)
				}
			}
			s.Close()
		}
	})
}

// innerLength extracts the embedded length of a serial/rank/frontier
// inner token without resuming it.
func innerLength(tok string) (int, error) {
	if enumerate.IsFrontierToken(tok) {
		fr, err := enumerate.ParseFrontier(tok)
		if err != nil {
			return 0, err
		}
		return fr.Length, nil
	}
	c, err := enumerate.ParseToken(tok)
	if err != nil {
		return 0, err
	}
	return c.Length, nil
}
