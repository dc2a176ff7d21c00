package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
)

// drainSession collects a session's remaining outputs as strings.
func drainSession(in *Instance, s enumerate.Session) []string {
	defer s.Close()
	var out []string
	for {
		w, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in.FormatWord(w))
	}
}

// TestEnumeratePagination: page through both classes with Limit + Cursor
// and compare the concatenated pages against one unbounded drain.
func TestEnumeratePagination(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	autos := []*automata.NFA{
		automata.RandomDFA(rng, automata.Binary(), 6, 0.5),    // ClassUL
		automata.Random(rng, automata.Binary(), 5, 0.35, 0.4), // likely ClassNL
		automata.AmbiguityGap(6),                              // ClassNL
	}
	for ai, a := range autos {
		in, err := New(a, 6, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := in.Witnesses(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, page := range []int{1, 2, 3, 7} {
			var got []string
			token := ""
			for steps := 0; ; steps++ {
				if steps > len(want)+2 {
					t.Fatalf("automaton %d page %d: pagination does not terminate", ai, page)
				}
				s, err := in.Enumerate(CursorOptions{Cursor: token, Limit: page})
				if err != nil {
					t.Fatal(err)
				}
				before := len(got)
				got = append(got, drainSession(in, s)...)
				tok, ok := s.Token()
				if !ok {
					t.Fatal("serial session must be resumable")
				}
				token = tok
				if len(got) == before {
					break
				}
			}
			if len(got) != len(want) {
				t.Fatalf("automaton %d page %d: %d outputs, want %d", ai, page, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("automaton %d page %d: output %d = %q, want %q", ai, page, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEnumerateFrom: the one-argument resume entry point equals
// Enumerate(CursorOptions{Cursor: token}).
func TestEnumerateFrom(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := in.Enumerate(CursorOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := drainSession(in, s)
	tok, _ := s.Token()
	resumed, err := in.EnumerateFrom(tok)
	if err != nil {
		t.Fatal(err)
	}
	rest := drainSession(in, resumed)
	got := append(first, rest...)
	want := []string{"aaa", "aab", "bba", "bbb"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEnumerateParallelOrdered: a parallel ordered session is bitwise
// identical to the serial one, for both classes. Run with -race in CI.
func TestEnumerateParallelOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 4; trial++ {
		for _, a := range []*automata.NFA{
			automata.RandomDFA(rng, automata.Binary(), 5, 0.5),
			automata.Random(rng, automata.Binary(), 5, 0.3, 0.4),
		} {
			in, err := New(a, 7, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := in.Witnesses(0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := in.Enumerate(CursorOptions{Workers: 4, Shards: 10, Ordered: true})
			if err != nil {
				t.Fatal(err)
			}
			got := drainSession(in, s)
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s): %d outputs, want %d", trial, in.Class(), len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s): output %d = %q, want %q", trial, in.Class(), i, got[i], want[i])
				}
			}
		}
	}
}

// TestEnumerateParallelWithLimit: Limit applies to parallel sessions too
// (the session is closed early; workers shut down cleanly).
func TestEnumerateParallelWithLimit(t *testing.T) {
	in, err := New(automata.All(automata.Binary()), 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := in.Enumerate(CursorOptions{Workers: 4, Shards: 16, Ordered: true, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	got := drainSession(in, s)
	if len(got) != 10 {
		t.Fatalf("limit ignored: %d outputs", len(got))
	}
	if got[0] != "0000000000000000" {
		t.Fatalf("first word %q", got[0])
	}
}

// TestEnumerateRejectsBadCursors: cursor misuse fails loudly at open time.
func TestEnumerateRejectsBadCursors(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.EnumerateFrom("not-a-token"); err == nil {
		t.Fatal("garbage token accepted")
	}
	// A cursor of the wrong length.
	other, err := New(paper, length+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := other.Enumerate(CursorOptions{Limit: 1})
	drainSession(other, s)
	tok, _ := s.Token()
	if _, err := in.EnumerateFrom(tok); err == nil {
		t.Fatal("cursor with wrong length accepted")
	}
	// A cursor of the wrong class kind.
	amb, err := New(automata.AmbiguityGap(3), length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := amb.Enumerate(CursorOptions{Limit: 1})
	drainSession(amb, s2)
	tok2, _ := s2.Token()
	if _, err := in.EnumerateFrom(tok2); err == nil {
		t.Fatal("cursor with wrong kind accepted")
	}
	// A parallel resume validates length and kind too.
	if _, err := in.Enumerate(CursorOptions{Cursor: tok, Workers: 4}); err == nil {
		t.Fatal("parallel resume of a wrong-length cursor accepted")
	}
	if _, err := in.Enumerate(CursorOptions{Cursor: tok2, Workers: 4}); err == nil {
		t.Fatal("parallel resume of a wrong-kind cursor accepted")
	}
}

// TestEnumerateParallelResume: a parallel session's frontier token resumes
// through the core entry points — serially, and as a new parallel stream —
// and a serial token reopens as a parallel stream. All three paths must
// produce exactly the remaining witnesses, in order.
func TestEnumerateParallelResume(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 3; trial++ {
		a := automata.Random(rng, automata.Binary(), 4+rng.Intn(3), 0.3, 0.4)
		in, err := New(a, 7, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := in.Witnesses(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 4 {
			continue
		}
		k := len(want) / 3
		popts := CursorOptions{Workers: 4, Shards: 5, Ordered: true, MergeBudget: 8, StealThreshold: 1}

		// Parallel page, then resume three ways.
		page := popts
		page.Limit = k
		s, err := in.Enumerate(page)
		if err != nil {
			t.Fatal(err)
		}
		first := drainSession(in, s)
		tok, ok := s.Token()
		if !ok {
			t.Fatal("parallel session must mint a resume token")
		}
		if len(first) != k {
			t.Fatalf("trial %d: page had %d witnesses, want %d", trial, len(first), k)
		}

		for name, resume := range map[string]CursorOptions{
			"serial":   {Cursor: tok},
			"parallel": {Cursor: tok, Workers: 4, Shards: 3, Ordered: true, MergeBudget: 8, StealThreshold: 1},
		} {
			rs, err := in.Enumerate(resume)
			if err != nil {
				t.Fatalf("trial %d %s resume: %v", trial, name, err)
			}
			got := append(append([]string(nil), first...), drainSession(in, rs)...)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s resume: %d outputs, want %d", trial, name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s resume: output %d = %q, want %q", trial, name, i, got[i], want[i])
				}
			}
		}

		// Serial page resumed as a parallel stream.
		ss, err := in.Enumerate(CursorOptions{Limit: k})
		if err != nil {
			t.Fatal(err)
		}
		first = drainSession(in, ss)
		stok, _ := ss.Token()
		rs, err := in.Enumerate(CursorOptions{Cursor: stok, Workers: 4, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		got := append(append([]string(nil), first...), drainSession(in, rs)...)
		if len(got) != len(want) {
			t.Fatalf("trial %d serial->parallel: %d outputs, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d serial->parallel: output %d = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEnumerateResumeMatrix: every token form resumes through core, at one
// worker and at four, on a RelationUL DFA and a RelationNL automaton — a
// fresh cursor, a mid-stream single-position cursor ('u' or 'n'), a rank
// cursor ('r', RelationUL) and a frontier ('p') from an ordered parallel
// page — and the words before the token followed by the resumed drain are
// Witnesses, in order.
func TestEnumerateResumeMatrix(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		a     *automata.NFA
		class Class
		kind  string
	}{
		{automata.RandomDFA(rand.New(rand.NewSource(54)), automata.Binary(), 6, 0.5), ClassUL, "u"},
		{automata.SubsetBlowup(4), ClassNL, "n"},
	} {
		in, err := New(tc.a, n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if in.Class() != tc.class {
			t.Fatalf("class %s, want %s", in.Class(), tc.class)
		}
		want, err := in.Witnesses(0)
		if err != nil {
			t.Fatal(err)
		}
		k := len(want) / 3
		if k < 2 {
			t.Fatalf("%s: %d witnesses, want at least 6", tc.class, len(want))
		}
		page := func(opts CursorOptions) string {
			opts.Limit = k
			s, err := in.Enumerate(opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := drainSession(in, s); len(got) != k {
				t.Fatalf("%s: page of %d words, want %d", tc.class, len(got), k)
			}
			tok, _ := s.Token()
			return tok
		}
		fresh, err := in.Enumerate(CursorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		freshTok, _ := fresh.Token()
		type form struct {
			name, tok, kind string
			before          int
		}
		forms := []form{
			{"fresh", freshTok, tc.kind, 0},
			{"serial", page(CursorOptions{}), tc.kind, k},
			{"frontier", page(CursorOptions{Workers: 4, Shards: 5, Ordered: true, MergeBudget: 8, StealThreshold: 1}), "p", k},
		}
		if tc.class == ClassUL {
			e, err := enumerate.NewUFA(in.Automaton(), n)
			if err != nil {
				t.Fatal(err)
			}
			enumerate.CollectWords(e, k)
			rc, err := e.RankCursor()
			if err != nil {
				t.Fatal(err)
			}
			forms = append(forms, form{"rank", rc.Token(), "r", k})
		}
		for _, f := range forms {
			if !strings.HasPrefix(f.tok, "el1:"+f.kind+":") {
				t.Fatalf("%s %s token %q, want kind %q", tc.class, f.name, f.tok, f.kind)
			}
			for _, workers := range []int{1, 4} {
				s, err := in.Enumerate(CursorOptions{Cursor: f.tok, Workers: workers, Ordered: true})
				if err != nil {
					t.Fatalf("%s %s at %d workers: %v", tc.class, f.name, workers, err)
				}
				got := append(append([]string(nil), want[:f.before]...), drainSession(in, s)...)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("%s %s at %d workers: %d words, not Witnesses' %d in order", tc.class, f.name, workers, len(got), len(want))
				}
			}
		}
	}
}
