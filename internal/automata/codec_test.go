package automata

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alpha := NewAlphabet("a", "b", "c")
	for trial := 0; trial < 25; trial++ {
		n := Random(rng, alpha, 1+rng.Intn(8), 0.3, 0.4)
		text := MarshalString(n)
		back, err := UnmarshalString(text)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v\n%s", trial, err, text)
		}
		if !Equal(n, back) {
			t.Fatalf("trial %d: round-trip mismatch\n%s\nvs\n%s", trial, text, MarshalString(back))
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"missing alphabet", "states: 2\nstart: 0\nfinal: 1\n0 a 1\n"},
		{"missing states", "alphabet: a\nstart: 0\nfinal: 0\n"},
		{"bad start", "alphabet: a\nstates: 2\nstart: 5\nfinal: 1\n"},
		{"bad final", "alphabet: a\nstates: 2\nstart: 0\nfinal: 7\n"},
		{"unknown symbol", "alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 z 1\n"},
		{"bad transition arity", "alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 a\n"},
		{"transition out of range", "alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 a 9\n"},
		{"duplicate alphabet symbol", "alphabet: a a\nstates: 1\nstart: 0\nfinal: 0\n"},
		{"zero states", "alphabet: a\nstates: 0\nstart: 0\nfinal: 0\n"},
	}
	for _, c := range cases {
		if _, err := UnmarshalString(c.text); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestUnmarshalCommentsAndBlanks(t *testing.T) {
	text := `
# a comment
alphabet: x y

states: 2
start: 0
# another
final: 1
0 x 1
`
	n, err := UnmarshalString(text)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumStates() != 2 || !n.IsFinal(1) || len(n.Successors(0, 0)) != 1 {
		t.Fatalf("parsed automaton wrong: %s", MarshalString(n))
	}
}

func TestMarshalRejectsEpsilon(t *testing.T) {
	n := New(Binary(), 2)
	n.AddEpsilon(0, 1)
	var sb strings.Builder
	if err := Marshal(&sb, n); err == nil {
		t.Fatal("marshal of ε-automaton should fail")
	}
}

func TestDeterminizeMatchesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := Random(rng, Binary(), 2+rng.Intn(5), 0.3, 0.4)
		d, ok := Determinize(n, 0)
		if !ok {
			t.Fatal("unbounded determinize cannot fail")
		}
		if !IsDeterministic(d) {
			t.Fatal("result is not deterministic")
		}
		for length := 0; length <= 5; length++ {
			if !sameStrings(language(d, length), language(n, length)) {
				t.Fatalf("trial %d: determinize changed language at length %d", trial, length)
			}
		}
	}
}

func TestDeterminizeBlowupBounded(t *testing.T) {
	n := SubsetBlowup(14)
	if _, ok := Determinize(n, 1000); ok {
		t.Fatal("SubsetBlowup(14) should exceed 1000 subset states")
	}
	d, ok := Determinize(SubsetBlowup(4), 0)
	if !ok || d.NumStates() < 16 {
		t.Fatalf("SubsetBlowup(4) determinization should have ≥ 16 states, got %d", d.NumStates())
	}
}

func TestBinaryEncodeRoundTrip(t *testing.T) {
	alpha := NewAlphabet("a", "b", "c", "d", "e")
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := Random(rng, alpha, 2+rng.Intn(4), 0.25, 0.4)
		enc := BinaryEncode(n)
		if enc.Width != 3 {
			t.Fatalf("width = %d, want 3", enc.Width)
		}
		for length := 0; length <= 3; length++ {
			want := language(n, length)
			// Encoded language at length·width, decoded back.
			encLang := language(enc.Encoded, enc.EncodedLength(length))
			var got []string
			for _, s := range encLang {
				bits := make(Word, len(s))
				for i := range s {
					bits[i] = int(s[i] - '0')
				}
				dec, err := enc.DecodeWord(bits)
				if err != nil {
					t.Fatalf("decode %q: %v", s, err)
				}
				got = append(got, alpha.FormatWord(dec))
			}
			if !sameStrings(got, want) {
				t.Fatalf("trial %d length %d: got %v want %v", trial, length, got, want)
			}
		}
	}
}

func TestBinaryEncodePreservesUnambiguity(t *testing.T) {
	alpha := NewAlphabet("a", "b", "c")
	rng := rand.New(rand.NewSource(37))
	checked := 0
	for trial := 0; trial < 60 && checked < 10; trial++ {
		n := Trim(Random(rng, alpha, 2+rng.Intn(4), 0.2, 0.4))
		if !IsUnambiguous(n) {
			continue
		}
		checked++
		enc := BinaryEncode(n)
		if !IsUnambiguous(enc.Encoded) {
			t.Fatalf("encoding broke unambiguity:\n%s", MarshalString(n))
		}
	}
	if checked == 0 {
		t.Fatal("no unambiguous automata generated")
	}
}

func TestBinaryEncodeWordHelpers(t *testing.T) {
	alpha := NewAlphabet("a", "b", "c")
	n := Chain(alpha, alpha.WordOf("c", "a", "b"))
	enc := BinaryEncode(n)
	w := alpha.WordOf("c", "a", "b")
	bits := enc.EncodeWord(w)
	if len(bits) != 6 {
		t.Fatalf("encoded length %d, want 6", len(bits))
	}
	back, err := enc.DecodeWord(bits)
	if err != nil {
		t.Fatal(err)
	}
	if alpha.FormatWord(back) != "cab" {
		t.Fatalf("decode = %q", alpha.FormatWord(back))
	}
	if _, err := enc.DecodeWord(Word{1, 1, 1}); err == nil {
		t.Error("decoding symbol 7 of a 3-letter alphabet should fail")
	}
	if _, err := enc.DecodeWord(Word{0}); err == nil {
		t.Error("decoding misaligned word should fail")
	}
	if !enc.Encoded.Accepts(bits) {
		t.Error("encoded automaton should accept encoded word")
	}
}

func TestBinaryEncodeUnaryAlphabet(t *testing.T) {
	alpha := NewAlphabet("a")
	n := Chain(alpha, Word{0, 0})
	enc := BinaryEncode(n)
	if enc.Width != 1 || enc.Encoded.Alphabet().Size() != 2 {
		t.Fatalf("unary promotion wrong: width=%d sigma=%d", enc.Width, enc.Encoded.Alphabet().Size())
	}
	if !enc.Encoded.Accepts(Word{0, 0}) || enc.Encoded.Accepts(Word{0, 1}) {
		t.Error("unary promotion changed the language")
	}
}

// referenceUnmarshal is the Scanner-based parser UnmarshalString replaced,
// kept verbatim (bar its name) as FuzzUnmarshal's reference: it splits
// with bufio.Scanner, strings.TrimSpace and strings.Fields, and builds
// with AddTransition.
func referenceUnmarshal(r io.Reader) (*NFA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var (
		alpha      *Alphabet
		out        *NFA
		start      = -1
		finals     []int
		numStates  = -1
		transLines [][3]string
		lineNo     int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "alphabet:"):
			names := strings.Fields(strings.TrimPrefix(line, "alphabet:"))
			if len(names) == 0 {
				return nil, fmt.Errorf("automata: line %d: empty alphabet", lineNo)
			}
			seen := map[string]bool{}
			for _, nm := range names {
				if seen[nm] {
					return nil, fmt.Errorf("automata: line %d: duplicate symbol %q", lineNo, nm)
				}
				seen[nm] = true
			}
			alpha = NewAlphabet(names...)
		case strings.HasPrefix(line, "states:"):
			v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "states:")))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("automata: line %d: bad state count", lineNo)
			}
			numStates = v
		case strings.HasPrefix(line, "start:"):
			v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "start:")))
			if err != nil {
				return nil, fmt.Errorf("automata: line %d: bad start state", lineNo)
			}
			start = v
		case strings.HasPrefix(line, "final:"):
			for _, f := range strings.Fields(strings.TrimPrefix(line, "final:")) {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("automata: line %d: bad final state %q", lineNo, f)
				}
				finals = append(finals, v)
			}
		default:
			fields := strings.Fields(line)
			if len(fields) != 3 {
				return nil, fmt.Errorf("automata: line %d: expected 'from symbol to', got %q", lineNo, line)
			}
			transLines = append(transLines, [3]string{fields[0], fields[1], fields[2]})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if alpha == nil {
		return nil, fmt.Errorf("automata: missing alphabet: header")
	}
	if numStates < 0 {
		return nil, fmt.Errorf("automata: missing states: header")
	}
	if start < 0 || start >= numStates {
		return nil, fmt.Errorf("automata: start state %d out of range", start)
	}
	out = New(alpha, numStates)
	out.SetStart(start)
	for _, f := range finals {
		if f < 0 || f >= numStates {
			return nil, fmt.Errorf("automata: final state %d out of range", f)
		}
		out.SetFinal(f, true)
	}
	for _, t := range transLines {
		q, err := strconv.Atoi(t[0])
		if err != nil {
			return nil, fmt.Errorf("automata: bad source state %q", t[0])
		}
		p, err := strconv.Atoi(t[2])
		if err != nil {
			return nil, fmt.Errorf("automata: bad target state %q", t[2])
		}
		a, ok := alpha.Symbol(t[1])
		if !ok {
			return nil, fmt.Errorf("automata: unknown symbol %q", t[1])
		}
		if q < 0 || q >= numStates || p < 0 || p >= numStates {
			return nil, fmt.Errorf("automata: transition %v out of range", t)
		}
		out.AddTransition(q, a, p)
	}
	return out, nil
}

// fuzzStateCap bounds the state counts FuzzUnmarshal hands the reference,
// which allocates its tables before it validates the transitions.
const fuzzStateCap = 1 << 12

// declaresHugeStates reports whether some states: header parses to more
// than fuzzStateCap.
func declaresHugeStates(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "states:"))); err == nil &&
			strings.HasPrefix(line, "states:") && v > fuzzStateCap {
			return true
		}
	}
	return false
}

// FuzzUnmarshal checks the single-pass parser against the Scanner-based
// reference: for every input both return the same error text, or
// automata equal under Equal (same alphabet, start, finals and sorted
// successor lists).
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range []string{
		"",
		"alphabet: a b\nstates: 2\nstart: 0\nfinal: 1\n0 a 1\n1 b 0\n",
		"alphabet: a b\nstates: 2\nstart: 0\nfinal: 1\n0 a 1\n1 b 0", // no final newline
		"alphabet:\ta\tb\nstates:\t2\nstart:\t0\nfinal:\t1\n0\ta\t1\n",
		"alphabet: a b\r\nstates: 2\r\nstart: 0\r\nfinal: 1\r\n0 a 1\r\n",
		"alphabet: a\u0085b\nstates: 2\nstart: 0\nfinal: 1\n0\u00a0a\u20031\n",
		"\u2003alphabet: a b\u00a0\nstates: 2\u0085\nstart: 0\nfinal: 1\n",
		"# comment\n\n  # indented comment\nalphabet: a\nstates: 1\nstart: 0\nfinal: 0\n0 a 0 # trailing\n",
		"0 a 1\n1 a 0\nfinal: 1\nstart: 0\nstates: 2\nalphabet: a\n",                  // headers after transitions
		"alphabet: a b\nstates: 3\nstart: 0\nfinal: 2\n0 a 1\nalphabet: b a\n1 a 2\n", // alphabet redefined after a transition
		"alphabet: a\nstates: 3\nstart: 0\nfinal: 1\n0 a 2\nstates: 2\n",              // state count lowered after a transition
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 2\n0 a 1\n",                         // final state one past the last
		"alphabet: a b\nstates: 3\nstart: 0\nfinal: 2 1\nfinal: 0\n2 b 1\n0 a 2\n0 a 1\n0 a 2\n1 b 1\n1 b 1\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 z 1\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 a 2\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n-1 a 0\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\nx a 0\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 a y\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1\n0 a\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 3\n0 z 1\n",
		"alphabet: a\nstates: 2\nstart: 2\nfinal: 1\n",
		"alphabet: a\nstates: two\nstart: 0\n",
		"alphabet: a\nstates: 0\nstart: 0\n",
		"alphabet: a\nstates: +2\nstart: -0\nfinal: +1\n0 a +1\n",
		"alphabet: a\nstates: 2\nstart: x\n",
		"alphabet: a\nstates: 2\nstart: 0\nfinal: 1 q\n",
		"alphabet: a b a\nstates: 1\nstart: 0\n",
		"alphabet:\nstates: 1\nstart: 0\n",
		"alphabet: a\nalphabet: b\nstates: 1\nstates: 2\nstart: 0\nstart: 1\n1 b 0\n",
		"states: 2\nstart: 0\n",
		"alphabet: a\nstart: 0\n",
		"alphabet: a\nstates: 2\n",
		"alphabet: a\xffb \xc3\nstates: 1\nstart: 0\n0 a\xffb 0\n",
		"alphabet: a b c d e f g h i j k l m n o p q r s t u v w x y z a\nstates: 1\nstart: 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if declaresHugeStates(text) {
			t.Skip("declared state count above the reference's allocation cap")
		}
		got, gerr := UnmarshalString(text)
		want, werr := referenceUnmarshal(strings.NewReader(text))
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("error mismatch on %q:\n got  %v\n want %v", text, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !Equal(got, want) || fmt.Sprint(got.Finals()) != fmt.Sprint(want.Finals()) {
			t.Fatalf("automaton mismatch on %q:\n got  %s\n want %s", text, MarshalString(got), MarshalString(want))
		}
	})
}

// TestUnmarshalStringCheckedOrder pins when the admission hook runs:
// after the whole text validates (a malformed automaton keeps its parse
// error) and with the declared state count, its error returned as is.
func TestUnmarshalStringCheckedOrder(t *testing.T) {
	reject := errors.New("too many states")
	seen := -1
	check := func(states int) error { seen = states; return reject }
	if _, err := UnmarshalStringChecked("alphabet: a\nstates: 7\nstart: 0\n0 z 1\n", check); err == nil || err == reject || seen != -1 {
		t.Fatalf("malformed text: err %v, hook saw %d; want the parse error and no hook call", err, seen)
	}
	if _, err := UnmarshalStringChecked("0 a 1\nalphabet: a\nstates: 7\nstart: 0\n", check); err != reject || seen != 7 {
		t.Fatalf("valid text: err %v, hook saw %d; want the hook's error for 7 states", err, seen)
	}
	n, err := UnmarshalStringChecked("alphabet: a\nstates: 7\nstart: 0\n0 a 1\n", func(int) error { return nil })
	if err != nil || n.NumStates() != 7 {
		t.Fatalf("admitted text: %v, %v", n, err)
	}
}

// TestUnmarshalCopiesNames pins that a parsed automaton's symbol names do
// not alias the text: a cached automaton must not keep its whole request
// body alive.
func TestUnmarshalCopiesNames(t *testing.T) {
	text := "alphabet: ab cd ef\nstates: 2\nstart: 0\nfinal: 1\n0 ab 1\n1 ef 0\n"
	n, err := UnmarshalString(text)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	hi := lo + uintptr(len(text))
	for _, name := range n.Alphabet().names {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(name))); p >= lo && p < hi {
			t.Fatalf("symbol name %q aliases the parsed text", name)
		}
	}
}

// TestAddTransitionAfterParseKeepsNeighbours pins the arena's capacity
// clipping: growing one parsed successor list must not write into the
// list laid out after it.
func TestAddTransitionAfterParseKeepsNeighbours(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := MarshalString(Random(rng, NewAlphabet("a", "b"), 12, 0.5, 0.4))
	for trial := 0; trial < 50; trial++ {
		parsed, err := UnmarshalString(text)
		if err != nil {
			t.Fatal(err)
		}
		before := make([][]int, 0, 24)
		for r := 0; r < 12; r++ {
			for s := 0; s < 2; s++ {
				before = append(before, append([]int(nil), parsed.Successors(r, s)...))
			}
		}
		q, a, p := rng.Intn(12), rng.Intn(2), rng.Intn(12)
		parsed.AddTransition(q, a, p)
		for r := 0; r < 12; r++ {
			for s := 0; s < 2; s++ {
				want := before[2*r+s]
				if r == q && s == a && !containsInt(want, p) {
					want = append(want, p)
					sort.Ints(want)
				}
				if got := parsed.Successors(r, s); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("trial %d: after AddTransition(%d, %d, %d) the list of (%d, %d) is %v, want %v",
						trial, q, a, p, r, s, got, want)
				}
			}
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
