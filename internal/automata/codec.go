package automata

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The text format for automata is line-oriented:
//
//	# comment
//	alphabet: a b c
//	states: 7
//	start: 0
//	final: 5 6
//	0 a 1
//	0 b 2
//
// Transitions are "from symbol to" triples. Blank lines and #-comments are
// ignored. This is the interchange format used by cmd/nfa, and the body
// every nfad request posts: parsing it is linear in the text and the
// transitions, with no per-line allocation (see UnmarshalStringChecked).

// Marshal writes the automaton in the text format.
func Marshal(w io.Writer, n *NFA) error {
	if n.HasEpsilon() {
		return fmt.Errorf("automata: cannot marshal automaton with ε-transitions")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "alphabet: %s\n", strings.Join(n.alpha.Names(), " "))
	fmt.Fprintf(bw, "states: %d\n", n.NumStates())
	fmt.Fprintf(bw, "start: %d\n", n.Start())
	finals := n.Finals()
	parts := make([]string, len(finals))
	for i, f := range finals {
		parts[i] = strconv.Itoa(f)
	}
	fmt.Fprintf(bw, "final: %s\n", strings.Join(parts, " "))
	n.EachTransition(func(q int, a Symbol, p int) {
		fmt.Fprintf(bw, "%d %s %d\n", q, n.alpha.Name(a), p)
	})
	return bw.Flush()
}

// MarshalString renders the automaton in the text format as a string.
func MarshalString(n *NFA) string {
	var sb strings.Builder
	if err := Marshal(&sb, n); err != nil {
		return ""
	}
	return sb.String()
}

// Unmarshal parses the text format from r: it reads r to the end and
// parses the text as UnmarshalString does.
func Unmarshal(r io.Reader) (*NFA, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return UnmarshalString(string(text))
}

// UnmarshalString parses the text format from a string.
func UnmarshalString(s string) (*NFA, error) {
	return UnmarshalStringChecked(s, nil)
}

// UnmarshalStringChecked is UnmarshalString with an admission hook for
// untrusted text: after every line has been validated and before
// anything sized by the declared state count is allocated, it calls
// checkStates (when non-nil) with the states: header's count and
// returns the hook's error unchanged. A caller that admits automata by
// state count can pass its check here so that an oversized header costs
// one pass over the text, not a state-sized table.
//
// Cost contract: the parse is linear in the text and in the automaton's
// transitions. It reads s in place through substrings (no per-line or
// per-field allocation) and allocates a constant number of objects
// beyond the final-state list: the automaton (New's tables and one
// successor arena, see packer), its alphabet (built at each alphabet:
// header; texts have one), and one temporary transition list. The
// symbol names the automaton keeps are copied out of s, so the result
// never pins the text it was parsed from.
//
// Lines are split on '\n' and trimmed of Unicode white space; blank
// lines and lines starting with '#' are skipped, and fields are split as
// strings.Fields splits them. Errors come in the order of the
// Scanner-based parser this one replaced: header and line-shape errors
// in line order during the scan; then the missing-header and start
// checks, the final-state range checks, and each transition's checks in
// line order. When the alphabet: and states: headers precede the
// transitions (as Marshal writes them) and every transition is valid,
// the transitions are read during the scan. Otherwise the scan only
// checks their shape, and they are read again, in line order, once the
// alphabet and the state count are known. Reading them during the scan
// saves a second split of every transition line: 15–21 µs of an 80–91 µs
// BenchmarkPrepare op (internal/core) on a 2-vCPU host.
func UnmarshalStringChecked(s string, checkStates func(states int) error) (*NFA, error) {
	var (
		alpha            *Alphabet // from the last alphabet: header so far
		start, numStates = -1, -1
		finals           []int
		numTrans         int
		transLo, transHi int // the bytes of s holding the transition lines
		edges            []edge
		eager            = true // edges holds every transition read so far
	)
	for it := (lineIter{rest: s}); ; {
		at := len(s) - len(it.rest)
		line, ok := it.next()
		if !ok {
			break
		}
		if line == "" || line[0] == '#' {
			continue
		}
		switch {
		case line[0] >= '0' && line[0] <= '9':
			// No header starts with a digit: a transition, below.
		case strings.HasPrefix(line, "alphabet:"):
			a, err := alphabetOf(line[len("alphabet:"):], it.no)
			if err != nil {
				return nil, err
			}
			alpha = a
			eager = eager && numTrans == 0
			continue
		case strings.HasPrefix(line, "states:"):
			v, err := strconv.Atoi(strings.TrimSpace(line[len("states:"):]))
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("automata: line %d: bad state count", it.no)
			}
			numStates = v
			eager = eager && numTrans == 0
			continue
		case strings.HasPrefix(line, "start:"):
			v, err := strconv.Atoi(strings.TrimSpace(line[len("start:"):]))
			if err != nil {
				return nil, fmt.Errorf("automata: line %d: bad start state", it.no)
			}
			start = v
			continue
		case strings.HasPrefix(line, "final:"):
			for f, rest := nextField(line[len("final:"):]); f != ""; f, rest = nextField(rest) {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("automata: line %d: bad final state %q", it.no, f)
				}
				finals = append(finals, v)
			}
			continue
		}
		// A transition line.
		t, ok := transitionFields(line)
		if !ok {
			return nil, fmt.Errorf("automata: line %d: expected 'from symbol to', got %q", it.no, line)
		}
		if numTrans == 0 {
			transLo = at
			eager = alpha != nil && numStates > 0
			edges = make([]edge, 0, strings.Count(s[at:], "\n")+1) // ≥ the transitions left
		}
		numTrans++
		transHi = len(s) - len(it.rest)
		if eager {
			e, err := readTransition(t, alpha, numStates)
			eager = err == nil
			edges = append(edges, e)
		}
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
	for _, f := range finals {
		if f < 0 || f >= numStates {
			return nil, fmt.Errorf("automata: final state %d out of range", f)
		}
	}
	if !eager {
		edges = edges[:0]
		for it := (lineIter{rest: s[transLo:transHi]}); ; {
			line, ok := it.next()
			if !ok {
				break
			}
			if line == "" || line[0] == '#' || isHeader(line) {
				continue
			}
			t, _ := transitionFields(line)
			e, err := readTransition(t, alpha, numStates)
			if err != nil {
				return nil, err
			}
			edges = append(edges, e)
		}
	}
	if checkStates != nil {
		if err := checkStates(numStates); err != nil {
			return nil, err
		}
	}
	sigma := alpha.Size()
	if numStates > math.MaxInt/sigma {
		return nil, fmt.Errorf("automata: %d states over %d symbols overflow the transition table", numStates, sigma)
	}

	// Group the transitions by (from, symbol) slot; Marshal's output is
	// already in order.
	if !slices.IsSortedFunc(edges, edge.cmp) {
		slices.SortFunc(edges, edge.cmp)
	}
	b := newPacker(alpha, numStates, len(edges))
	for i := 0; i < len(edges); {
		slot := edges[i].slot
		for ; i < len(edges) && edges[i].slot == slot; i++ {
			b.add(edges[i].to)
		}
		b.close(slot/sigma, slot%sigma)
	}
	out := b.n
	out.start = start
	for _, f := range finals {
		out.final[f] = true
	}
	return out, nil
}

// edge is one parsed transition: its slot from·σ + symbol and target.
type edge struct{ slot, to int }

func (e edge) cmp(f edge) int {
	if e.slot != f.slot {
		return cmp.Compare(e.slot, f.slot)
	}
	return cmp.Compare(e.to, f.to)
}

// readTransition checks a transition line's fields against the alphabet
// and the state count, in the order the errors are reported.
func readTransition(t [3]string, alpha *Alphabet, states int) (edge, error) {
	q, err := strconv.Atoi(t[0])
	if err != nil {
		return edge{}, fmt.Errorf("automata: bad source state %q", t[0])
	}
	p, err := strconv.Atoi(t[2])
	if err != nil {
		return edge{}, fmt.Errorf("automata: bad target state %q", t[2])
	}
	a, ok := alpha.Symbol(t[1])
	if !ok {
		return edge{}, fmt.Errorf("automata: unknown symbol %q", t[1])
	}
	if q < 0 || q >= states || p < 0 || p >= states {
		return edge{}, fmt.Errorf("automata: transition %v out of range", t)
	}
	return edge{slot: q*len(alpha.names) + a, to: p}, nil
}

// alphabetOf builds the alphabet of an alphabet: header's names (the
// text after "alphabet:"), copied out of the parsed text, or reports the
// header's error: no names, or a name listed twice (the first repeat is
// the one reported).
func alphabetOf(names string, lineNo int) (*Alphabet, error) {
	count := 0
	for f, rest := nextField(names); f != ""; f, rest = nextField(rest) {
		count++
	}
	if count == 0 {
		return nil, fmt.Errorf("automata: line %d: empty alphabet", lineNo)
	}
	names = strings.Clone(names)
	a := &Alphabet{names: make([]string, 0, count), index: make(map[string]int, count)}
	for f, rest := nextField(names); f != ""; f, rest = nextField(rest) {
		if _, dup := a.index[f]; dup {
			return nil, fmt.Errorf("automata: line %d: duplicate symbol %q", lineNo, f)
		}
		a.index[f] = len(a.names)
		a.names = append(a.names, f)
	}
	return a, nil
}

// lineIter walks a text line by line as bufio.ScanLines splits it (a
// final line needs no newline; no empty line follows a trailing one),
// returning each line trimmed of white space. no is the 1-based number
// of the line next returned last.
type lineIter struct {
	rest string
	no   int
}

func (it *lineIter) next() (string, bool) {
	if it.rest == "" {
		return "", false
	}
	line := it.rest
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line, it.rest = line[:i], line[i+1:]
	} else {
		it.rest = ""
	}
	it.no++
	return strings.TrimSpace(line), true
}

// isHeader reports whether a trimmed line is a header line.
func isHeader(line string) bool {
	return strings.HasPrefix(line, "alphabet:") || strings.HasPrefix(line, "states:") ||
		strings.HasPrefix(line, "start:") || strings.HasPrefix(line, "final:")
}

// transitionFields splits a transition line into its three fields and
// reports whether it has exactly three.
func transitionFields(line string) (t [3]string, ok bool) {
	rest := line
	for i := range t {
		if t[i], rest = nextField(rest); t[i] == "" {
			return t, false
		}
	}
	f, _ := nextField(rest)
	return t, f == ""
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField returns the first field of s as strings.Fields splits it
// (fields are separated by unicode.IsSpace runs; invalid UTF-8 is not
// space), and the text after it. The field is "" when s has none. It
// tests ASCII bytes in a table, as strings.Fields does, where
// strings.TrimLeftFunc and strings.IndexFunc with unicode.IsSpace would
// make a call per byte: the table saves 13–14 µs of a 78–84 µs
// BenchmarkPrepare op (internal/core) on a 2-vCPU host.
func nextField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += w
	}
	j := i
	for j < len(s) {
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[j:])
		if unicode.IsSpace(r) {
			break
		}
		j += w
	}
	return s[i:j], s[j:]
}

// Equal reports whether two automata are structurally identical (same
// alphabet names, start, finals and transition relation). It is a helper
// for round-trip tests, not a language-equivalence test.
func Equal(a, b *NFA) bool {
	if a.NumStates() != b.NumStates() || a.Start() != b.Start() {
		return false
	}
	an, bn := a.alpha.Names(), b.alpha.Names()
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	for q := 0; q < a.NumStates(); q++ {
		if a.IsFinal(q) != b.IsFinal(q) {
			return false
		}
		for s := 0; s < a.alpha.Size(); s++ {
			x, y := a.Successors(q, s), b.Successors(q, s)
			if len(x) != len(y) {
				return false
			}
			if !sort.IntsAreSorted(x) || !sort.IntsAreSorted(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
		}
	}
	return true
}
