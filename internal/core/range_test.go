package core

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/exact"
)

// rangeInstance builds a RelationUL instance over a random DFA.
func rangeInstance(t *testing.T, seed int64, states int) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nfa := automata.RandomDFA(rng, automata.Binary(), states, 0.5)
	in, err := New(nfa, 4, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if in.Class() != ClassUL {
		t.Fatal("random DFA must be RelationUL")
	}
	return in
}

// drain collects up to limit formatted words from a session.
func drain(in *Instance, s enumerate.Session, limit int) []string {
	var out []string
	for limit <= 0 || len(out) < limit {
		w, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, in.FormatWord(w))
	}
	return out
}

// TestEnumerateRangeMatchesPerLength: the range session is exactly the
// concatenation of per-length Enumerate sessions, for both classes.
func TestEnumerateRangeMatchesPerLength(t *testing.T) {
	ambRng := rand.New(rand.NewSource(51))
	for _, tc := range []struct {
		name string
		nfa  *automata.NFA
	}{
		{"UL", automata.RandomDFA(ambRng, automata.Binary(), 5, 0.6)},
		{"NL", automata.SubsetBlowup(3)},
	} {
		in, err := New(tc.nfa, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 1, 5
		s, err := in.EnumerateRange(lo, hi, CursorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(in, s, 0)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		var want []string
		for n := lo; n <= hi; n++ {
			pin, err := New(tc.nfa, n, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ws, err := pin.Witnesses(0)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ws...)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: range enumeration differs from per-length concatenation:\n%v\nvs\n%v", tc.name, got, want)
		}
	}
}

// TestRangeCountRankUnrank: TotalRange sums the per-length exact counts,
// and RankRange/UnrankRange agree with the enumeration order and invert
// each other.
func TestRangeCountRankUnrank(t *testing.T) {
	in := rangeInstance(t, 52, 6)
	lo, hi := 0, 6
	total, err := in.TotalRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sum := new(big.Int)
	for n := lo; n <= hi; n++ {
		sum.Add(sum, exact.CountUFA(in.Automaton(), n))
	}
	if total.Cmp(sum) != 0 {
		t.Fatalf("TotalRange = %v, Σ CountUFA = %v", total, sum)
	}
	s, err := in.EnumerateRange(lo, hi, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	words := drain(in, s, 0)
	s.Close()
	if int64(len(words)) != total.Int64() {
		t.Fatalf("enumerated %d words, TotalRange %v", len(words), total)
	}
	for i := range words {
		if i >= 80 {
			break
		}
		w, err := in.UnrankRange(lo, hi, big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if in.FormatWord(w) != words[i] {
			t.Fatalf("UnrankRange(%d) = %q, enumeration %q", i, in.FormatWord(w), words[i])
		}
		r, err := in.RankRange(lo, hi, w)
		if err != nil {
			t.Fatal(err)
		}
		if r.Int64() != int64(i) {
			t.Fatalf("RankRange(UnrankRange(%d)) = %v", i, r)
		}
	}
}

// TestRangeTokenRoundTripThroughCore: pausing and resuming a range
// session through core (serial and parallel workers, either side) is
// bitwise identical to the uninterrupted enumeration.
func TestRangeTokenRoundTripThroughCore(t *testing.T) {
	in := rangeInstance(t, 53, 6)
	lo, hi := 1, 6
	full, err := in.EnumerateRange(lo, hi, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(in, full, 0)
	full.Close()
	if len(want) == 0 {
		t.Skip("empty range")
	}
	for _, workers := range []int{1, 3} {
		for _, k := range []int{0, 1, len(want) / 2, len(want) - 1, len(want)} {
			s, err := in.EnumerateRange(lo, hi, CursorOptions{Limit: k, Workers: workers, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			head := drain(in, s, 0)
			tok, ok := s.Token()
			s.Close()
			if !ok {
				t.Fatalf("workers=%d k=%d: session not resumable", workers, k)
			}
			if !enumerate.IsRangeToken(tok) {
				t.Fatalf("workers=%d k=%d: token %q is not an el1:R: token", workers, k, tok)
			}
			// Resume through the explicit-range API and the token-only one.
			for _, resume := range []func() (enumerate.Session, error){
				func() (enumerate.Session, error) {
					return in.EnumerateRange(lo, hi, CursorOptions{Cursor: tok, Workers: workers, Ordered: true})
				},
				func() (enumerate.Session, error) {
					return in.EnumerateRangeFrom(tok, CursorOptions{Workers: workers, Ordered: true})
				},
			} {
				rs, err := resume()
				if err != nil {
					t.Fatal(err)
				}
				tail := drain(in, rs, 0)
				rs.Close()
				got := append(append([]string(nil), head...), tail...)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("workers=%d k=%d: resume mismatch:\n%v\nvs\n%v", workers, k, got, want)
				}
			}
		}
	}
}

// TestRangeSeekRank: CursorOptions.SeekRank on EnumerateRange is a
// GLOBAL rank — the session continues exactly at that word, including
// across length boundaries, and seeking to TotalRange opens an exhausted
// session.
func TestRangeSeekRank(t *testing.T) {
	in := rangeInstance(t, 54, 5)
	lo, hi := 0, 5
	full, err := in.EnumerateRange(lo, hi, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(in, full, 0)
	full.Close()
	total, err := in.TotalRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if int(total.Int64()) != len(want) {
		t.Fatalf("total %v vs %d enumerated", total, len(want))
	}
	for i := 0; i <= len(want); i++ {
		s, err := in.EnumerateRange(lo, hi, CursorOptions{SeekRank: big.NewInt(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(in, s, 0)
		s.Close()
		if strings.Join(got, " ") != strings.Join(want[i:], " ") {
			t.Fatalf("seek %d: got %v, want %v", i, got, want[i:])
		}
	}
	if _, err := in.EnumerateRange(lo, hi, CursorOptions{SeekRank: new(big.Int).Add(total, big.NewInt(1))}); err == nil {
		t.Fatal("seek past TotalRange accepted")
	}
}

// TestRangeSamplingThroughCore: SampleRange draws witnesses of in-range
// lengths, SampleManyRange is bitwise worker-independent, and both
// reject RelationNL instances (as do the other ranged accessors).
func TestRangeSamplingThroughCore(t *testing.T) {
	in := rangeInstance(t, 55, 8)
	lo, hi := 2, 8
	total, err := in.TotalRange(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if total.Sign() == 0 {
		t.Skip("empty range")
	}
	for i := 0; i < 50; i++ {
		w, err := in.SampleRange(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) < lo || len(w) > hi || !in.Automaton().Accepts(w) {
			t.Fatalf("SampleRange drew non-witness %q (len %d)", in.FormatWord(w), len(w))
		}
	}
	base, err := in.SampleManyRange(lo, hi, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, err := in.SampleManyRange(lo, hi, 150, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if in.FormatWord(got[i]) != in.FormatWord(base[i]) {
				t.Fatalf("workers=%d draw %d: %q vs %q", workers, i, in.FormatWord(got[i]), in.FormatWord(base[i]))
			}
		}
	}
	// RelationNL instances reject exact ranged access but still enumerate.
	amb, err := New(automata.SubsetBlowup(3), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := amb.TotalRange(1, 3); err == nil {
		t.Fatal("TotalRange accepted on RelationNL")
	}
	if _, err := amb.SampleRange(1, 3); err == nil {
		t.Fatal("SampleRange accepted on RelationNL")
	}
	if _, err := amb.RankRange(1, 3, automata.Word{0}); err == nil {
		t.Fatal("RankRange accepted on RelationNL")
	}
	if _, err := amb.UnrankRange(1, 3, big.NewInt(0)); err == nil {
		t.Fatal("UnrankRange accepted on RelationNL")
	}
	s, err := amb.EnumerateRange(1, 3, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if words := drain(amb, s, 0); len(words) == 0 {
		t.Fatal("RelationNL range enumeration empty")
	}
	s.Close()
}

// TestRangeCursorBoundsThroughCore: a range token resumed against a
// different requested range, or a mismatched automaton, is rejected.
func TestRangeCursorBoundsThroughCore(t *testing.T) {
	in := rangeInstance(t, 56, 5)
	s, err := in.EnumerateRange(1, 4, CursorOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	drain(in, s, 0)
	tok, _ := s.Token()
	s.Close()
	if _, err := in.EnumerateRange(1, 5, CursorOptions{Cursor: tok}); err == nil {
		t.Fatal("token accepted against a different range")
	}
	other, err := New(automata.All(automata.Binary()), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.EnumerateRange(1, 4, CursorOptions{Cursor: tok}); err == nil {
		t.Fatal("token accepted against a different automaton")
	}
	if _, err := in.EnumerateRange(1, 4, CursorOptions{Cursor: tok, SeekRank: big.NewInt(0)}); err == nil {
		t.Fatal("Cursor and SeekRank accepted together")
	}
	if _, err := in.EnumerateRange(3, 1, CursorOptions{}); err == nil {
		t.Fatal("lo > hi accepted")
	}
}

// TestRangeSeekRankParallel: a global-rank seek with Workers > 1 drains
// the identical suffix in canonical order (the seeked enumerator
// re-shards through the steal scheduler).
func TestRangeSeekRankParallel(t *testing.T) {
	in := rangeInstance(t, 57, 6)
	lo, hi := 1, 6
	full, err := in.EnumerateRange(lo, hi, CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(in, full, 0)
	full.Close()
	if len(want) < 4 {
		t.Skip("union too small")
	}
	for _, i := range []int{0, 1, len(want) / 2, len(want) - 1} {
		s, err := in.EnumerateRange(lo, hi, CursorOptions{SeekRank: big.NewInt(int64(i)), Workers: 3, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		got := drain(in, s, 0)
		s.Close()
		if strings.Join(got, " ") != strings.Join(want[i:], " ") {
			t.Fatalf("parallel seek %d: got %v, want %v", i, got, want[i:])
		}
	}
}

// TestEnumerateRangeFromRejectsSeek: a seek alongside a resume token is
// mutually exclusive on the range path exactly as on the single-length
// path — never silently dropped.
func TestEnumerateRangeFromRejectsSeek(t *testing.T) {
	in := rangeInstance(t, 58, 5)
	s, err := in.EnumerateRange(1, 4, CursorOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	drain(in, s, 0)
	tok, _ := s.Token()
	s.Close()
	if _, err := in.EnumerateRangeFrom(tok, CursorOptions{SeekRank: big.NewInt(1)}); err == nil {
		t.Fatal("EnumerateRangeFrom accepted a SeekRank alongside the token")
	}
}
