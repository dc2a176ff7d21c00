// Package bench is the experiment harness behind cmd/benchtab and the
// repository-level benchmarks: its registry (IDs, ByID) holds every
// experiment (F1, E1–E18, E20, E21 — E19, the two-tier arithmetic A/B,
// went with the big.Int tier; its numbers stay in the ROADMAP trajectory
// table), and each prints one table of the quantities it measures
// (`benchtab -only E4` runs one). Performance across commits is
// recorded elsewhere: the ROADMAP trajectory table and the committed
// BENCH_*.json records of the serving benchmark (see the perfbench
// package comment).
//
// The paper itself is a theory paper with no measured tables, so these
// experiments validate the theorems' algorithmic claims: polynomial
// scaling, (1±δ) FPRAS accuracy, constant-vs-polynomial delay shapes,
// generator uniformity, and the collapse of the natural baselines
// (exhaustive counting, determinization, naive Monte-Carlo) on the
// adversarial families.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) {
	t.Rows = append(t.Rows, cols)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	width := func(s string) int { return utf8.RuneCountInString(s) }
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = width(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && width(c) > widths[i] {
				widths[i] = width(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// All runs every experiment in order. Quick mode shrinks the workloads so
// the full suite finishes fast (used by tests and `benchtab -quick`).
func All(quick bool) []*Table {
	return []*Table{
		F1PaperExample(),
		E1ConstantDelay(quick),
		E2ExactCountUFA(quick),
		E3UFASampling(quick),
		E4FPRASAccuracy(quick),
		E5FPRASScaling(quick),
		E6VsNaiveMC(quick),
		E7PolyDelay(quick),
		E8PLVUG(quick),
		E9Spanners(quick),
		E10RPQ(quick),
		E11BDD(quick),
		E12DNF(quick),
		E13AblationRejection(quick),
		E14ParallelFPRAS(quick),
		E15ShardedEnum(quick),
		E16WorkStealing(quick),
		E17SamplerThroughput(quick),
		E18RangeBuild(quick),
		E20InstanceCache(quick),
		E21Serving(quick),
	}
}

// ByID returns the experiment with the given id (case-insensitive), or nil.
func ByID(id string, quick bool) *Table {
	switch strings.ToUpper(id) {
	case "F1":
		return F1PaperExample()
	case "E1":
		return E1ConstantDelay(quick)
	case "E2":
		return E2ExactCountUFA(quick)
	case "E3":
		return E3UFASampling(quick)
	case "E4":
		return E4FPRASAccuracy(quick)
	case "E5":
		return E5FPRASScaling(quick)
	case "E6":
		return E6VsNaiveMC(quick)
	case "E7":
		return E7PolyDelay(quick)
	case "E8":
		return E8PLVUG(quick)
	case "E9":
		return E9Spanners(quick)
	case "E10":
		return E10RPQ(quick)
	case "E11":
		return E11BDD(quick)
	case "E12":
		return E12DNF(quick)
	case "E13":
		return E13AblationRejection(quick)
	case "E14":
		return E14ParallelFPRAS(quick)
	case "E15":
		return E15ShardedEnum(quick)
	case "E16":
		return E16WorkStealing(quick)
	case "E17":
		return E17SamplerThroughput(quick)
	case "E18":
		return E18RangeBuild(quick)
	case "E20":
		return E20InstanceCache(quick)
	case "E21":
		return E21Serving(quick)
	}
	return nil
}

// IDs lists all experiment identifiers.
func IDs() []string {
	return []string{"F1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E20", "E21"}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000)
}
