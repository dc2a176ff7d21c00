package lengthrange_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/lengthrange"
)

// The range session lives in internal/enumerate; these tests drive it
// over the range index, whose rank space it must follow word for word.

// ufaFactory wires a range session to the raw enumerate engine (core does
// the same through its session opener, with extra cursor-length checks).
func ufaFactory(n *automata.NFA) enumerate.SessionFactory {
	return func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		if cursor != "" {
			return enumerate.Resume(n, cursor)
		}
		if seek != nil {
			return enumerate.NewUFAAt(n, length, seek)
		}
		return enumerate.NewUFA(n, length)
	}
}

// drainRange collects a session's remaining words as formatted strings.
func drainRange(n *automata.NFA, s enumerate.Session, limit int) []string {
	var out []string
	for limit <= 0 || len(out) < limit {
		w, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, n.Alphabet().FormatWord(w))
	}
	return out
}

// TestRangeSessionLengthLex: the chained session emits the union in
// length-lexicographic order — per length, bitwise identical to the
// single-length engine — and agrees with UnrankRange rank for rank.
func TestRangeSessionLengthLex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		nfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(5), 0.6)
		lo, hi := rng.Intn(2), 3+rng.Intn(4)
		fp := enumerate.Fingerprint(nfa)
		rs, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
		if err != nil {
			t.Fatal(err)
		}
		got := drainRange(nfa, rs, 0)
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		rs.Close()
		// Reference: per-length engines, concatenated.
		var want []string
		for n := lo; n <= hi; n++ {
			e, err := enumerate.NewUFA(nfa, n)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, enumerate.Collect(nfa.Alphabet(), e, 0)...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d words, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: word %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
		// Rank-for-rank agreement with the shared index.
		ri, err := lengthrange.Build(nfa, lo, hi, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if i >= 50 {
				break
			}
			u, err := ri.UnrankRange(big.NewInt(int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			if nfa.Alphabet().FormatWord(u) != w {
				t.Fatalf("trial %d: UnrankRange(%d) = %q, enumeration %q", trial, i,
					nfa.Alphabet().FormatWord(u), w)
			}
		}
	}
}

// TestRangeSessionResume: for every pause point k, "emit k words, mint
// the el1:R: token, resume, drain" is bitwise identical to the
// uninterrupted range enumeration.
func TestRangeSessionResume(t *testing.T) {
	nfa := automata.All(automata.Binary())
	lo, hi := 0, 3
	fp := enumerate.Fingerprint(nfa)
	full, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	want := drainRange(nfa, full, 0)
	full.Close()
	if len(want) != 15 {
		t.Fatalf("union size %d, want 15", len(want))
	}
	for k := 0; k <= len(want); k++ {
		rs, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
		if err != nil {
			t.Fatal(err)
		}
		head := drainRange(nfa, rs, k)
		tok, ok := rs.Token()
		rs.Close()
		if !ok {
			t.Fatalf("k=%d: session not resumable", k)
		}
		c, err := enumerate.ParseRangeToken(tok)
		if err != nil {
			t.Fatalf("k=%d: token rejected: %v", k, err)
		}
		resumed, err := enumerate.ResumeRangeSession(c, fp, ufaFactory(nfa))
		if err != nil {
			t.Fatalf("k=%d: resume failed: %v", k, err)
		}
		tail := drainRange(nfa, resumed, 0)
		resumed.Close()
		got := append(append([]string(nil), head...), tail...)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d words after resume, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: word %d = %q, want %q", k, i, got[i], want[i])
			}
		}
	}
}

// TestRangeSessionSeek: NewRangeSessionAt positioned by SplitRank of a
// global rank continues exactly at that rank's word.
func TestRangeSessionSeek(t *testing.T) {
	nfa := automata.All(automata.Binary())
	lo, hi := 1, 4
	fp := enumerate.Fingerprint(nfa)
	ri, err := lengthrange.Build(nfa, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	want := drainRange(nfa, full, 0)
	full.Close()
	for i := 0; i < len(want); i++ {
		n, within, err := ri.SplitRank(big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := enumerate.NewRangeSessionAt(lo, hi, n, within, fp, ufaFactory(nfa))
		if err != nil {
			t.Fatal(err)
		}
		got := drainRange(nfa, rs, 0)
		rs.Close()
		if len(got) != len(want)-i {
			t.Fatalf("seek %d: %d words, want %d", i, len(got), len(want)-i)
		}
		for j := range got {
			if got[j] != want[i+j] {
				t.Fatalf("seek %d: word %d = %q, want %q", i, j, got[j], want[i+j])
			}
		}
	}
}

// TestRangeTokenValidation: forged and malformed el1:R: tokens are
// rejected at parse time or at resume time, never accepted silently.
func TestRangeTokenValidation(t *testing.T) {
	nfa := automata.All(automata.Binary())
	fp := enumerate.Fingerprint(nfa)
	rs, err := enumerate.NewRangeSession(1, 3, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	rs.Next()
	tok, _ := rs.Token()
	rs.Close()

	if !enumerate.IsRangeToken(tok) {
		t.Fatalf("minted token %q not recognized as range kind", tok)
	}
	c, err := enumerate.ParseRangeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip.
	c2, err := enumerate.ParseRangeToken(c.Token())
	if err != nil || c2 != c {
		t.Fatalf("round trip %+v -> %+v (%v)", c, c2, err)
	}
	// Wrong envelope fingerprint fails before the factory runs.
	bad := c
	bad.FP++
	if _, err := enumerate.ResumeRangeSession(bad, fp, func(int, string, *big.Int) (enumerate.Session, error) {
		t.Fatal("factory must not run on fingerprint mismatch")
		return nil, nil
	}); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	// Inner token forged against another automaton fails inside the
	// factory's own validation.
	other, _ := automata.PaperExample()
	if _, err := enumerate.ResumeRangeSession(c, enumerate.Fingerprint(other), ufaFactory(other)); err == nil {
		t.Fatal("cross-automaton envelope accepted")
	}
	// Malformed payloads.
	for _, garbage := range []string{
		"", "el1:R:", "el1:R:!!!", "el1:q:AAAA", "el2:R:AAAA",
		"el1:R:AAAA", // truncated varints / bad state
	} {
		if _, err := enumerate.ParseRangeToken(garbage); err == nil {
			t.Fatalf("garbage token %q accepted", garbage)
		}
	}
	// Inconsistent bounds: cur outside [lo, hi].
	forged := enumerate.RangeCursor{FP: fp, Lo: 2, Hi: 5, Cur: 1, Inner: "x"}
	if _, err := enumerate.ParseRangeToken(forged.Token()); err == nil {
		t.Fatal("cur < lo accepted")
	}
	// Done tokens round trip and resume to an exhausted session.
	doneTok := enumerate.RangeCursor{FP: fp, Lo: 1, Hi: 3, Cur: 3, Done: true}.Token()
	dc, err := enumerate.ParseRangeToken(doneTok)
	if err != nil || !dc.Done {
		t.Fatalf("done token: %+v (%v)", dc, err)
	}
	ds, err := enumerate.ResumeRangeSession(dc, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Next(); ok {
		t.Fatal("done session emitted a word")
	}
}

// TestRangeSessionErrorNoDoneToken: a session that dies mid-chain (the
// next per-length open fails) reports the error and refuses to mint a
// resume token — a done-state token would claim the skipped lengths were
// drained.
func TestRangeSessionErrorNoDoneToken(t *testing.T) {
	nfa := automata.All(automata.Binary())
	fp := enumerate.Fingerprint(nfa)
	inner := ufaFactory(nfa)
	failing := func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		if length >= 2 {
			return nil, fmt.Errorf("synthetic open failure at length %d", length)
		}
		return inner(length, cursor, seek)
	}
	rs, err := enumerate.NewRangeSession(1, 3, fp, failing)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	n := 0
	for {
		if _, ok := rs.Next(); !ok {
			break
		}
		n++
	}
	if n != 2 { // lengths-1 words "0", "1" before the chain dies
		t.Fatalf("emitted %d words before the failure, want 2", n)
	}
	if rs.Err() == nil {
		t.Fatal("mid-chain failure not reported")
	}
	if tok, ok := rs.Token(); ok {
		t.Fatalf("errored session minted token %q; want ok=false", tok)
	}
}

// TestRangeSessionTokenAfterClose: like every other Session in the
// engine, Token after Close still answers the true resume position — a
// partly drained, closed session must not mint a done-state token.
func TestRangeSessionTokenAfterClose(t *testing.T) {
	nfa := automata.All(automata.Binary())
	lo, hi := 0, 3
	fp := enumerate.Fingerprint(nfa)
	full, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	want := drainRange(nfa, full, 0)
	full.Close()
	rs, err := enumerate.NewRangeSession(lo, hi, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	head := drainRange(nfa, rs, 4)
	rs.Close()
	tok, ok := rs.Token() // after Close — the Stream-compatible ordering
	if !ok {
		t.Fatal("Token after Close answered ok=false")
	}
	c, err := enumerate.ParseRangeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if c.Done {
		t.Fatalf("partly drained session minted a done token %q after Close", tok)
	}
	resumed, err := enumerate.ResumeRangeSession(c, fp, ufaFactory(nfa))
	if err != nil {
		t.Fatal(err)
	}
	tail := drainRange(nfa, resumed, 0)
	resumed.Close()
	got := append(head, tail...)
	if len(got) != len(want) {
		t.Fatalf("token-after-close resume yielded %d words, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRangeSessionStatsAfterDrain: the scheduler statistics of a
// parallel per-length stream stay reachable through Unwrap after the
// range is drained and closed (the last length's stream is retained).
func TestRangeSessionStatsAfterDrain(t *testing.T) {
	nfa := automata.All(automata.Binary())
	fp := enumerate.Fingerprint(nfa)
	parallel := func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		if cursor != "" || seek != nil {
			t.Fatal("unexpected resume in this test")
		}
		e, err := enumerate.NewUFA(nfa, length)
		if err != nil {
			return nil, err
		}
		return e.Stream(enumerate.StreamOptions{Workers: 2, Ordered: true}), nil
	}
	rs, err := enumerate.NewRangeSession(1, 3, fp, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got := drainRange(nfa, rs, 0); len(got) != 14 {
		t.Fatalf("drained %d words, want 14", len(got))
	}
	if _, ok := enumerate.SessionStats(rs); !ok {
		t.Fatal("scheduler stats unreachable after drain")
	}
	rs.Close()
	if _, ok := enumerate.SessionStats(rs); !ok {
		t.Fatal("scheduler stats unreachable after Close")
	}
}
