package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the helper process for the signal e2e tests: when
// NFA_CLI_HELPER is set, the test binary behaves exactly like the nfa
// CLI (same run() entry, same signal.NotifyContext wiring as main), so
// tests can exec it and deliver real signals mid-enumeration.
func TestMain(m *testing.M) {
	if os.Getenv("NFA_CLI_HELPER") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// unambFixture accepts exactly {aba} at length 3 (a chain DFA): the
// RelationUL dispatch path.
const unambFixture = `# chain: a b a
alphabet: a b
states: 4
start: 0
final: 3
0 a 1
1 b 2
2 a 3
`

// ambFixture accepts every binary word of every length, with two runs per
// word (states 0 and 1 both loop on both symbols): the RelationNL / FPRAS
// dispatch path. |L_4| = 16.
const ambFixture = `alphabet: 0 1
states: 2
start: 0
final: 1
0 0 0
0 1 0
0 0 1
0 1 1
1 0 1
1 1 1
`

// emptyFixture accepts only the word 01, so |L_6| = 0.
const emptyFixture = `alphabet: 0 1
states: 3
start: 0
final: 2
0 0 1
1 1 2
`

func writeFixture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runNFA invokes the CLI entry point and returns (stdout, stderr, code).
func runNFA(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestInfoUnambiguous(t *testing.T) {
	f := writeFixture(t, "chain.txt", unambFixture)
	out, _, code := runNFA(t, "info", "-f", f, "-n", "3")
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{
		"unambiguous:   true",
		"RelationUL",
		"|L_3|:        1 (exact)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestInfoAmbiguous(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	out, _, code := runNFA(t, "info", "-f", f, "-n", "4")
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{
		"unambiguous:   false",
		"RelationNL",
		"|L_4|:        16 (exact, subset DP)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestCountBothClasses(t *testing.T) {
	ul := writeFixture(t, "chain.txt", unambFixture)
	out, _, code := runNFA(t, "count", "-f", ul, "-n", "3")
	if code != 0 || !strings.Contains(out, "1 (exact, RelationUL)") {
		t.Fatalf("UL count: exit %d, output %q", code, out)
	}
	nl := writeFixture(t, "amb.txt", ambFixture)
	// Default K (96) exceeds |L_4| = 16, so the FPRAS is exactly handled.
	out, _, code = runNFA(t, "count", "-f", nl, "-n", "4")
	if code != 0 || !strings.Contains(out, "16 (exact, RelationNL)") {
		t.Fatalf("NL count: exit %d, output %q", code, out)
	}
	out, _, code = runNFA(t, "count", "-f", nl, "-n", "4", "-exact")
	if code != 0 || !strings.Contains(out, "16 (exact, RelationNL)") {
		t.Fatalf("NL -exact count: exit %d, output %q", code, out)
	}
}

func TestEnum(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	out, errOut, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limit", "5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Fields(strings.TrimSpace(out))
	if len(lines) != 5 {
		t.Fatalf("enum printed %d witnesses, want 5:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if len(l) != 4 || strings.Trim(l, "01") != "" {
			t.Fatalf("bad witness %q", l)
		}
	}
	if !strings.Contains(errOut, "# 5 witnesses") {
		t.Fatalf("missing enum summary on stderr: %q", errOut)
	}
}

func TestSampleParallelDeterministicPerSeed(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	sample := func(workers string) string {
		out, _, code := runNFA(t, "sample", "-f", f, "-n", "4",
			"-count", "6", "-seed", "11", "-k", "8", "-workers", workers)
		if code != 0 {
			t.Fatalf("exit %d", code)
		}
		return out
	}
	first := sample("1")
	lines := strings.Fields(strings.TrimSpace(first))
	if len(lines) != 6 {
		t.Fatalf("sample printed %d witnesses, want 6:\n%s", len(lines), first)
	}
	for _, l := range lines {
		if len(l) != 4 || strings.Trim(l, "01") != "" {
			t.Fatalf("bad sampled witness %q", l)
		}
	}
	if again := sample("4"); again != first {
		t.Fatalf("sample output depends on -workers:\n%q\nvs\n%q", first, again)
	}
}

// TestEnumCursorRoundTrip: enumerate a page, scrape the resume token off
// stderr, continue with -cursor, and compare the concatenation against one
// unbounded run — end to end through the CLI, for both classes.
func TestEnumCursorRoundTrip(t *testing.T) {
	for name, fixture := range map[string]string{"amb": ambFixture, "unamb": unambFixture} {
		f := writeFixture(t, name+".txt", fixture)
		n := "4"
		if name == "unamb" {
			n = "3"
		}
		fullOut, _, code := runNFA(t, "enum", "-f", f, "-n", n, "-limit", "0")
		if code != 0 {
			t.Fatalf("%s: full enum exit %d", name, code)
		}
		want := strings.Fields(fullOut)

		var got []string
		cursor := ""
		for page := 0; ; page++ {
			if page > len(want)+2 {
				t.Fatalf("%s: pagination does not terminate", name)
			}
			args := []string{"enum", "-f", f, "-n", n, "-limit", "3"}
			if cursor != "" {
				args = append(args, "-cursor", cursor)
			}
			out, errOut, code := runNFA(t, args...)
			if code != 0 {
				t.Fatalf("%s page %d: exit %d, stderr %q", name, page, code, errOut)
			}
			words := strings.Fields(out)
			got = append(got, words...)
			const marker = "-cursor "
			i := strings.Index(errOut, marker)
			if i < 0 {
				t.Fatalf("%s page %d: no resume token on stderr: %q", name, page, errOut)
			}
			cursor = strings.TrimSpace(errOut[i+len(marker):])
			if len(words) == 0 {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: paginated %d witnesses, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: witness %d = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestEnumParallelMatchesSerial: -workers with the ordered merge produces
// the exact serial output, and the parallel run now mints a resume token
// of its own (the multi-cell frontier).
func TestEnumParallelMatchesSerial(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	serial, _, code := runNFA(t, "enum", "-f", f, "-n", "6", "-limit", "0", "-workers", "1")
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	parallel, errOut, code := runNFA(t, "enum", "-f", f, "-n", "6", "-limit", "0", "-workers", "4")
	if code != 0 {
		t.Fatalf("parallel exit %d", code)
	}
	if parallel != serial {
		t.Fatalf("parallel enum differs:\n%q\nvs\n%q", parallel, serial)
	}
	if !strings.Contains(errOut, "-cursor el1:p:") {
		t.Fatalf("parallel run should mint a frontier resume token: %q", errOut)
	}
}

// TestEnumUnordered: throughput mode emits the same multiset of witnesses
// in some order, and -v dumps per-shard scheduler statistics on stderr.
func TestEnumUnordered(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	serial, _, code := runNFA(t, "enum", "-f", f, "-n", "6", "-limit", "0", "-workers", "1")
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	out, errOut, code := runNFA(t, "enum", "-f", f, "-n", "6", "-limit", "0",
		"-workers", "4", "-unordered", "-steal", "1", "-budget", "16", "-v")
	if code != 0 {
		t.Fatalf("unordered exit %d, stderr %q", code, errOut)
	}
	want := strings.Fields(serial)
	got := strings.Fields(out)
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("unordered enum printed %d witnesses, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("unordered witness %d = %q, want %q", i, got[i], want[i])
		}
	}
	if !strings.Contains(errOut, "unordered") {
		t.Fatalf("summary should mention unordered mode: %q", errOut)
	}
	for _, marker := range []string{"# shards:", "peak buffer:", "shard 0 prefix="} {
		if !strings.Contains(errOut, marker) {
			t.Fatalf("-v stats missing %q:\n%s", marker, errOut)
		}
	}
}

// TestEnumParallelCursorRoundTrip: paginate with -workers 4 — each page
// prints a frontier token, and the concatenation of the pages equals the
// serial listing, end to end through the CLI.
func TestEnumParallelCursorRoundTrip(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	fullOut, _, code := runNFA(t, "enum", "-f", f, "-n", "5", "-limit", "0")
	if code != 0 {
		t.Fatalf("full enum exit %d", code)
	}
	want := strings.Fields(fullOut)

	var got []string
	cursor := ""
	for page := 0; ; page++ {
		if page > len(want)+2 {
			t.Fatal("parallel pagination does not terminate")
		}
		args := []string{"enum", "-f", f, "-n", "5", "-limit", "7", "-workers", "4", "-steal", "1", "-budget", "8"}
		if cursor != "" {
			args = append(args, "-cursor", cursor)
		}
		out, errOut, code := runNFA(t, args...)
		if code != 0 {
			t.Fatalf("page %d: exit %d, stderr %q", page, code, errOut)
		}
		words := strings.Fields(out)
		got = append(got, words...)
		const marker = "-cursor "
		i := strings.Index(errOut, marker)
		if i < 0 {
			t.Fatalf("page %d: no resume token on stderr: %q", page, errOut)
		}
		cursor = strings.TrimSpace(errOut[i+len(marker):])
		if len(words) == 0 {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("paginated %d witnesses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("witness %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestEnumRejectsForeignCursor: a token minted on one automaton must not
// resume on another.
func TestEnumRejectsForeignCursor(t *testing.T) {
	amb := writeFixture(t, "amb.txt", ambFixture)
	_, errOut, code := runNFA(t, "enum", "-f", amb, "-n", "4", "-limit", "2")
	if code != 0 {
		t.Fatal("seed run failed")
	}
	i := strings.Index(errOut, "-cursor ")
	tok := strings.TrimSpace(errOut[i+len("-cursor "):])
	empty := writeFixture(t, "empty.txt", emptyFixture)
	if _, _, code := runNFA(t, "enum", "-f", empty, "-n", "4", "-cursor", tok); code == 0 {
		t.Fatal("foreign cursor accepted")
	}
}

// allFixture is a one-state DFA accepting every binary word: unambiguous
// (RelationUL) with |L_4| = 16 — the ranked-access fixture.
const allFixture = `alphabet: 0 1
states: 1
start: 0
final: 0
0 0 0
0 1 0
`

// TestRankUnrankCLI: unrank enumerates the language in enumeration order,
// rank inverts it, and both reject ambiguous instances and bad input.
func TestRankUnrankCLI(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	fullOut, _, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limit", "0")
	if code != 0 {
		t.Fatalf("enum exit %d", code)
	}
	words := strings.Fields(fullOut)
	if len(words) != 16 {
		t.Fatalf("expected 16 witnesses, got %d", len(words))
	}
	for i, w := range words {
		out, _, code := runNFA(t, "unrank", "-f", f, "-n", "4", "-r", fmt.Sprint(i))
		if code != 0 {
			t.Fatalf("unrank %d: exit %d", i, code)
		}
		if got := strings.TrimSpace(out); got != w {
			t.Fatalf("unrank %d = %q, enum order says %q", i, got, w)
		}
		out, _, code = runNFA(t, "rank", "-f", f, "-n", "4", "-w", w)
		if code != 0 {
			t.Fatalf("rank %q: exit %d", w, code)
		}
		if got := strings.TrimSpace(out); got != fmt.Sprint(i) {
			t.Fatalf("rank(%q) = %s, want %d", w, got, i)
		}
	}
	// Out-of-range rank and unparseable input fail cleanly.
	if _, _, code := runNFA(t, "unrank", "-f", f, "-n", "4", "-r", "16"); code != 1 {
		t.Errorf("unrank past the end: exit %d, want 1", code)
	}
	if _, _, code := runNFA(t, "rank", "-f", f, "-n", "4", "-w", "01x1"); code != 1 {
		t.Errorf("rank of a non-alphabet word: exit %d, want 1", code)
	}
	// Ranked access needs RelationUL.
	amb := writeFixture(t, "amb.txt", ambFixture)
	if _, errOut, code := runNFA(t, "rank", "-f", amb, "-n", "4", "-w", "0000"); code != 1 || !strings.Contains(errOut, "RelationUL") {
		t.Errorf("rank on ambiguous: exit %d, stderr %q", code, errOut)
	}
	if _, _, code := runNFA(t, "unrank", "-f", amb, "-n", "4", "-r", "0"); code != 1 {
		t.Errorf("unrank on ambiguous: exit %d, want 1", code)
	}
}

// TestEnumSeek: -seek RANK starts the listing at that index — serial and
// parallel agree with the tail of the full listing — and a rank past the
// end yields an empty page.
func TestEnumSeek(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	fullOut, _, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limit", "0")
	if code != 0 {
		t.Fatalf("enum exit %d", code)
	}
	want := strings.Fields(fullOut)
	for _, seek := range []int{0, 1, 7, 15, 16} {
		for _, workers := range []string{"1", "4"} {
			out, _, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limit", "0",
				"-seek", fmt.Sprint(seek), "-workers", workers)
			if code != 0 {
				t.Fatalf("seek %d workers %s: exit %d", seek, workers, code)
			}
			got := strings.Fields(out)
			tail := want[seek:]
			if len(got) != len(tail) {
				t.Fatalf("seek %d workers %s: %d witnesses, want %d", seek, workers, len(got), len(tail))
			}
			for i := range tail {
				if got[i] != tail[i] {
					t.Fatalf("seek %d workers %s: witness %d = %q, want %q", seek, workers, i, got[i], tail[i])
				}
			}
		}
	}
	if _, _, code := runNFA(t, "enum", "-f", f, "-n", "4", "-seek", "17"); code != 1 {
		t.Errorf("seek past |W|: exit %d, want 1", code)
	}
	amb := writeFixture(t, "amb.txt", ambFixture)
	if _, _, code := runNFA(t, "enum", "-f", amb, "-n", "4", "-seek", "0"); code != 1 {
		t.Errorf("seek on ambiguous: exit %d, want 1", code)
	}
}

// TestSampleDistinctCLI: -distinct draws are distinct witnesses; a
// full-language draw is a permutation of the language; oversized draws and
// ambiguous instances fail.
func TestSampleDistinctCLI(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	out, _, code := runNFA(t, "sample", "-f", f, "-n", "4", "-count", "16", "-distinct", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	got := strings.Fields(out)
	sort.Strings(got)
	if len(got) != 16 {
		t.Fatalf("distinct sample printed %d words, want 16", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			t.Fatalf("duplicate %q in distinct draw", got[i])
		}
	}
	if _, _, code := runNFA(t, "sample", "-f", f, "-n", "4", "-count", "17", "-distinct"); code != 1 {
		t.Errorf("oversized distinct draw: exit %d, want 1", code)
	}
	amb := writeFixture(t, "amb.txt", ambFixture)
	if _, _, code := runNFA(t, "sample", "-f", amb, "-n", "4", "-distinct"); code != 1 {
		t.Errorf("distinct on ambiguous: exit %d, want 1", code)
	}
}

func TestSampleEmptyLanguage(t *testing.T) {
	f := writeFixture(t, "empty.txt", emptyFixture)
	out, _, code := runNFA(t, "sample", "-f", f, "-n", "6")
	if code != 0 || !strings.Contains(out, "⊥") {
		t.Fatalf("empty sample: exit %d, output %q", code, out)
	}
}

func TestBadInvocations(t *testing.T) {
	if _, _, code := runNFA(t); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if _, _, code := runNFA(t, "frobnicate", "-f", "x"); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if _, errOut, code := runNFA(t, "count", "-n", "3"); code != 1 || !strings.Contains(errOut, "missing -f") {
		t.Errorf("missing file: exit %d, stderr %q", code, errOut)
	}
	if _, _, code := runNFA(t, "count", "-f", filepath.Join(t.TempDir(), "nope.txt")); code != 1 {
		t.Errorf("nonexistent file: exit %d, want 1", code)
	}
	bad := writeFixture(t, "bad.txt", "alphabet: a\nstates: oops\n")
	if _, _, code := runNFA(t, "info", "-f", bad); code != 1 {
		t.Errorf("malformed automaton: exit %d, want 1", code)
	}
	all := writeFixture(t, "all.txt", allFixture)
	if _, _, code := runNFA(t, "enum", "-f", all, "-n", "3", "-workers", "2", "-steal", "-1"); code != 2 {
		t.Errorf("negative -steal: exit %d, want 2", code)
	}
}

// TestRangeCount: count -lo/-hi prints the exact union size (allFixture:
// |L_n| = 2^n, so lengths 0..3 hold 15 witnesses).
func TestRangeCount(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	out, _, code := runNFA(t, "count", "-f", f, "-lo", "0", "-hi", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "15 (exact, RelationUL, lengths 0..3)") {
		t.Fatalf("range count output: %q", out)
	}
	// Ambiguous automata have no exact range count.
	amb := writeFixture(t, "amb.txt", ambFixture)
	_, errOut, code := runNFA(t, "count", "-f", amb, "-lo", "1", "-hi", "3")
	if code == 0 || !strings.Contains(errOut, "RelationUL") {
		t.Fatalf("range count on RelationNL: exit %d, stderr %q", code, errOut)
	}
	// Bad ranges are rejected up front.
	if _, errOut, code := runNFA(t, "count", "-f", f, "-lo", "4", "-hi", "2"); code == 0 {
		t.Fatalf("lo > hi accepted: %q", errOut)
	}
	if _, errOut, code := runNFA(t, "count", "-f", f, "-lo", "2"); code == 0 {
		t.Fatalf("-lo without -hi accepted: %q", errOut)
	}
	// An explicit -n alongside -lo/-hi would silently answer a different
	// question; it must be rejected.
	if _, errOut, code := runNFA(t, "count", "-f", f, "-n", "7", "-lo", "0", "-hi", "3"); code == 0 {
		t.Fatalf("-n with -lo/-hi accepted: %q", errOut)
	}
}

// TestRangeEnumPagination: enum -lo/-hi lists the union shortest first,
// mints el1:R: tokens, and paginates to exactly the uninterrupted output.
func TestRangeEnumPagination(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	fullOut, errOut, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "3", "-limit", "0")
	if code != 0 {
		t.Fatalf("full enum exit %d", code)
	}
	want := strings.Fields(fullOut)
	if len(want) != 2+4+8 {
		t.Fatalf("union size %d, want 14: %v", len(want), want)
	}
	if want[0] != "0" || want[len(want)-1] != "111" {
		t.Fatalf("not length-lex: %v", want)
	}
	if !strings.Contains(errOut, "-cursor el1:R:") {
		t.Fatalf("range enum should mint an el1:R: token: %q", errOut)
	}

	var got []string
	cursor := ""
	for page := 0; ; page++ {
		if page > len(want)+2 {
			t.Fatal("range pagination does not terminate")
		}
		args := []string{"enum", "-f", f, "-lo", "1", "-hi", "3", "-limit", "3"}
		if cursor != "" {
			args = append(args, "-cursor", cursor)
		}
		out, errOut, code := runNFA(t, args...)
		if code != 0 {
			t.Fatalf("page %d: exit %d, stderr %q", page, code, errOut)
		}
		words := strings.Fields(out)
		got = append(got, words...)
		const marker = "-cursor "
		i := strings.Index(errOut, marker)
		if i < 0 {
			t.Fatalf("page %d: no resume token on stderr: %q", page, errOut)
		}
		cursor = strings.TrimSpace(errOut[i+len(marker):])
		if len(words) == 0 {
			break
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("paginated range enum differs:\n%v\nvs\n%v", got, want)
	}

	// The stderr hint says `resume with -cursor TOKEN` — following it
	// verbatim (no -lo/-hi) must work: the range comes from the token.
	head, errOut2, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "3", "-limit", "4")
	if code != 0 {
		t.Fatalf("head exit %d", code)
	}
	i := strings.Index(errOut2, "-cursor ")
	tok := strings.TrimSpace(errOut2[i+len("-cursor "):])
	tail, _, code := runNFA(t, "enum", "-f", f, "-cursor", tok, "-limit", "0")
	if code != 0 {
		t.Fatalf("bare-token resume exit %d", code)
	}
	joined := append(strings.Fields(head), strings.Fields(tail)...)
	if strings.Join(joined, " ") != strings.Join(want, " ") {
		t.Fatalf("bare-token resume differs:\n%v\nvs\n%v", joined, want)
	}
	// -seek alongside a range cursor is mutually exclusive, exactly as on
	// the single-length path — never silently dropped.
	if _, _, code := runNFA(t, "enum", "-f", f, "-cursor", tok, "-seek", "1"); code == 0 {
		t.Fatal("-seek alongside a range cursor accepted")
	}
	// -v on a parallel range session reports the scheduler stats of the
	// in-flight per-length stream, not "serial session".
	_, vErr, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "3", "-limit", "0", "-workers", "2", "-v")
	if code != 0 {
		t.Fatalf("-v run exit %d", code)
	}
	if !strings.Contains(vErr, "# shards:") || strings.Contains(vErr, "serial session") {
		t.Fatalf("-v on parallel range session printed no shard stats: %q", vErr)
	}
}

// TestRangeEnumParallelAndSeek: -workers keeps the range output bitwise
// identical, and -seek addresses a global rank across length boundaries.
func TestRangeEnumParallelAndSeek(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	serial, _, code := runNFA(t, "enum", "-f", f, "-lo", "0", "-hi", "4", "-limit", "0")
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	parallel, _, code := runNFA(t, "enum", "-f", f, "-lo", "0", "-hi", "4", "-limit", "0", "-workers", "3")
	if code != 0 {
		t.Fatalf("parallel exit %d", code)
	}
	if parallel != serial {
		t.Fatalf("parallel range enum differs:\n%q\nvs\n%q", parallel, serial)
	}
	// Seek over lengths 1..4 (ε prints as an empty line, so keep it out of
	// the Fields-based comparison): global rank 3 is the second length-2
	// word, "01".
	base, _, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "4", "-limit", "0")
	if code != 0 {
		t.Fatalf("lo=1 serial exit %d", code)
	}
	words := strings.Fields(base)
	out, _, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "4", "-limit", "0", "-seek", "3")
	if code != 0 {
		t.Fatalf("seek exit %d", code)
	}
	if got := strings.Fields(out); strings.Join(got, " ") != strings.Join(words[3:], " ") {
		t.Fatalf("-seek 3 output:\n%v\nwant\n%v", got, words[3:])
	}
}

// TestRangeRankUnrankSample: the range forms of rank/unrank invert each
// other through the CLI, and range sampling emits in-range witnesses
// deterministically per seed.
func TestRangeRankUnrankSample(t *testing.T) {
	f := writeFixture(t, "all.txt", allFixture)
	// Global order over lengths 0..2: ε 0 1 00 01 10 11 — rank 4 is "01".
	out, _, code := runNFA(t, "unrank", "-f", f, "-lo", "0", "-hi", "2", "-r", "4")
	if code != 0 {
		t.Fatalf("unrank exit %d", code)
	}
	if got := strings.TrimSpace(out); got != "01" {
		t.Fatalf("unrank -r 4 = %q, want 01", got)
	}
	out, _, code = runNFA(t, "rank", "-f", f, "-lo", "0", "-hi", "2", "-w", "01")
	if code != 0 {
		t.Fatalf("rank exit %d", code)
	}
	if got := strings.TrimSpace(out); got != "4" {
		t.Fatalf("rank -w 01 = %q, want 4", got)
	}
	// Out-of-range length rejected.
	if _, _, code := runNFA(t, "rank", "-f", f, "-lo", "0", "-hi", "2", "-w", "000"); code == 0 {
		t.Fatal("rank of out-of-range length accepted")
	}
	// An explicitly empty -w is ε — rank 0 of a lo=0 range — so the
	// unrank output above round-trips even at length 0.
	out, _, code = runNFA(t, "rank", "-f", f, "-lo", "0", "-hi", "2", "-w", "")
	if code != 0 {
		t.Fatalf("rank -w \"\" exit %d", code)
	}
	if got := strings.TrimSpace(out); got != "0" {
		t.Fatalf("rank of ε = %q, want 0", got)
	}
	// An omitted -w is still an error.
	if _, _, code := runNFA(t, "rank", "-f", f, "-lo", "0", "-hi", "2"); code == 0 {
		t.Fatal("omitted -w accepted")
	}
	// Sampling: seeded, worker-independent, in-range.
	a, _, code := runNFA(t, "sample", "-f", f, "-lo", "1", "-hi", "4", "-count", "8", "-seed", "5")
	if code != 0 {
		t.Fatalf("sample exit %d", code)
	}
	b, _, code := runNFA(t, "sample", "-f", f, "-lo", "1", "-hi", "4", "-count", "8", "-seed", "5", "-workers", "4")
	if code != 0 {
		t.Fatalf("parallel sample exit %d", code)
	}
	if a != b {
		t.Fatalf("range sample depends on workers:\n%q\nvs\n%q", a, b)
	}
	for _, w := range strings.Fields(a) {
		if len(w) < 1 || len(w) > 4 {
			t.Fatalf("sampled out-of-range word %q", w)
		}
	}
	if _, _, code := runNFA(t, "sample", "-f", f, "-lo", "1", "-hi", "4", "-count", "2", "-distinct"); code == 0 {
		t.Fatal("-distinct range form should be rejected")
	}
}

// TestLimitsFlag: -limits installs an admission policy that rejects
// over-limit requests up front (wrapping admission.ErrRejected), and a
// malformed spec is a usage failure, not a crash.
func TestLimitsFlag(t *testing.T) {
	f := writeFixture(t, "amb.txt", ambFixture)
	// Within limits: runs normally.
	if _, errOut, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limit", "5", "-limits", "length=8,states=100"); code != 0 {
		t.Fatalf("in-limits enum exit %d: %s", code, errOut)
	}
	// Length over the cap: rejected before any work.
	if out, errOut, code := runNFA(t, "enum", "-f", f, "-n", "9", "-limit", "5", "-limits", "length=8"); code == 0 {
		t.Fatalf("over-length enum accepted:\n%s", out)
	} else if !strings.Contains(errOut, "admission") {
		t.Fatalf("over-length rejection not an admission error: %s", errOut)
	}
	// Range span over the cap.
	if _, errOut, code := runNFA(t, "enum", "-f", f, "-lo", "1", "-hi", "6", "-limits", "span=3"); code == 0 {
		t.Fatal("over-span range enum accepted")
	} else if !strings.Contains(errOut, "admission") {
		t.Fatalf("over-span rejection not an admission error: %s", errOut)
	}
	// Sample batch over the cap.
	if _, errOut, code := runNFA(t, "sample", "-f", f, "-n", "4", "-count", "100", "-limits", "batch=10"); code == 0 {
		t.Fatal("over-batch sample accepted")
	} else if !strings.Contains(errOut, "admission") {
		t.Fatalf("over-batch rejection not an admission error: %s", errOut)
	}
	// Malformed spec.
	if _, _, code := runNFA(t, "enum", "-f", f, "-n", "4", "-limits", "bogus=1"); code == 0 {
		t.Fatal("malformed -limits accepted")
	}
}

// TestInterruptPrintsResumeToken execs the CLI (via the TestMain helper
// mode), delivers a real SIGINT mid-enumeration, and asserts the
// cooperative-shutdown contract: exit code 130, a resume token on
// stderr, and a token that continues the enumeration exactly where the
// interrupt cut it off (the interrupted prefix plus the resumed page
// equal the uninterrupted stream).
func TestInterruptPrintsResumeToken(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f := writeFixture(t, "amb.txt", ambFixture)
	// 2^30 words at length 30: the enumeration cannot finish before the
	// signal lands. The unread pipe backpressures the producer, so the
	// interrupted prefix stays small.
	cmd := exec.Command(exe, "enum", "-f", f, "-n", "30", "-limit", "1000000000")
	cmd.Env = append(os.Environ(), "NFA_CLI_HELPER=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stdout)
	first, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first witness: %v (stderr: %s)", err, errBuf.String())
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Drain the rest of the interrupted run's output.
	var rest strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := r.Read(buf)
		rest.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("interrupted CLI did not exit; stderr: %s", errBuf.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("interrupted exit code %d, want 130; stderr: %s", code, errBuf.String())
	}
	stderrStr := errBuf.String()
	if !strings.Contains(stderrStr, "interrupted after") {
		t.Fatalf("stderr missing interrupt notice: %s", stderrStr)
	}
	var token string
	for _, line := range strings.Split(stderrStr, "\n") {
		if i := strings.Index(line, "resume with -cursor "); i >= 0 {
			token = strings.TrimSpace(line[i+len("resume with -cursor "):])
		}
	}
	if token == "" {
		t.Fatalf("no resume token on stderr: %s", stderrStr)
	}
	prefix := strings.Fields(first + rest.String())
	if len(prefix) == 0 {
		t.Fatal("interrupted run emitted no witnesses")
	}
	// Resume for one more page and check the combined stream against an
	// uninterrupted run of the same total length.
	const page = 50
	resumed, _, code := runNFA(t, "enum", "-f", f, "-n", "30", "-cursor", token, "-limit", fmt.Sprint(page))
	if code != 0 {
		t.Fatalf("resume from interrupt token failed (exit %d)", code)
	}
	canonical, _, code := runNFA(t, "enum", "-f", f, "-n", "30", "-limit", fmt.Sprint(len(prefix)+page))
	if code != 0 {
		t.Fatalf("canonical enum failed (exit %d)", code)
	}
	got := append(append([]string{}, prefix...), strings.Fields(resumed)...)
	want := strings.Fields(canonical)
	if len(got) != len(want) {
		t.Fatalf("interrupted+resumed stream has %d words, canonical %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream diverges at word %d after interrupt: got %q want %q", i, got[i], want[i])
		}
	}
}
