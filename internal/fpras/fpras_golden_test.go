package fpras

import (
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenPath = "testdata/golden.txt"

// goldenCase is one pinned estimator: an automaton, a length and the
// Params it is built with.
type goldenCase struct {
	name   string
	nfa    *automata.NFA
	length int
	params Params
}

// goldenCases are the seeded binary NFAs whose estimates and sample
// streams testdata/golden.txt pins. They cover the serving benchmark's
// nl-mixed shape (4–6 random states, n = 8–9, δ = 0.5, Seed 7, the
// language larger than the δ-derived sketch so the vertices near the top
// are estimated), two E5-shaped layered automata at K = 32, the gap and
// blowup families of the parallel-equivalence test, and one exactly
// handled instance.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	cat := rand.New(rand.NewSource(0x4E4C))
	for i, shape := range []struct{ states, length int }{{4, 8}, {5, 9}, {6, 8}, {5, 8}, {6, 9}} {
		k := int(math.Ceil(8 * float64(shape.length+1) / 0.5))
		var nfa *automata.NFA
		for {
			nfa = automata.Random(cat, automata.Binary(), shape.states, 0.3, 0.5)
			count, err := exact.CountNFA(nfa, shape.length, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Larger than the sketch, but not nearly Σ^n: a near-universal
			// language makes every split ≈ 1/2 and pins little.
			if count.Cmp(big.NewInt(int64(k))) > 0 && count.Cmp(big.NewInt(3<<shape.length/4)) < 0 {
				break
			}
		}
		cases = append(cases, goldenCase{fmt.Sprintf("nl-mixed-%d", i), nfa, shape.length, Params{Delta: 0.5, Seed: 7, Workers: 4}})
	}
	e5 := rand.New(rand.NewSource(5))
	for _, length := range []int{8, 12} {
		nfa := automata.RandomLayered(e5, automata.Binary(), length, 4, 2)
		cases = append(cases, goldenCase{fmt.Sprintf("e5-layered-%d", length), nfa, length, Params{K: 32, Seed: 1, Workers: 4}})
	}
	return append(cases,
		goldenCase{"gap(10)", automata.AmbiguityGap(10), 10, Params{K: 32, Seed: 9, Workers: 4}},
		goldenCase{"blowup(6)", automata.SubsetBlowup(6), 14, Params{K: 64, Seed: 7, Workers: 4}},
		goldenCase{"all(6)-exact", automata.All(automata.Binary()), 6, Params{K: 96, Seed: 3, Workers: 4}},
	)
}

// goldenRecord renders everything the golden file pins for one case: the
// count at 40 significant digits, Exact, and the SampleN(8, w) streams for
// w = 1 and w = 4.
func goldenRecord(t *testing.T, c goldenCase) string {
	t.Helper()
	est, err := New(c.nfa, c.length, c.params)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case %s n=%d K=%d\n", c.name, c.length, est.K())
	fmt.Fprintf(&b, "count %s\n", est.Count().Text('g', 40))
	fmt.Fprintf(&b, "exact %v\n", est.Exact())
	for _, w := range []int{1, 4} {
		ws, err := est.SampleN(8, w)
		if err != nil {
			t.Fatalf("%s: SampleN(8, %d): %v", c.name, w, err)
		}
		fmt.Fprintf(&b, "sampleN w=%d", w)
		for _, word := range ws {
			b.WriteByte(' ')
			for _, sym := range word {
				b.WriteByte(byte('0' + sym))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenEstimatesAndSamples pins the estimator's output for the golden
// cases — the Count text, Exact and the SampleN streams — against values
// recorded from an earlier implementation. The other tests compare builds
// of the same code with each other (worker counts, reruns), so only this
// one fails when a rewrite of the build or the descent changes that
// output. It pins outputs, not roundings: a rounding change that flips no
// draw and no estimate digit on these cases goes undetected. Regenerate
// with -update only when a change is meant to alter the output.
func TestGoldenEstimatesAndSamples(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenCases(t) {
		got.WriteString(goldenRecord(t, c))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			var line string
			if i < len(gotLines) {
				line = gotLines[i]
			}
			t.Fatalf("%s line %d:\n got  %q\n want %q", goldenPath, i+1, line, wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d output lines, %s has %d", len(gotLines), goldenPath, len(wantLines))
	}
}
