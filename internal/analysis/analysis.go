// Package analysis is the repo's static-analysis suite: a stdlib-only
// analyzer framework (go/parser + go/types, no module dependencies) plus
// one analyzer per standing engine invariant. The contracts it enforces
// used to live only in package comments and code review:
//
//   - fpfirst: token-resume paths must validate the embedded fingerprint
//     (or bound claimed counts by the payload size) BEFORE any
//     length-sized allocation or DAG build — the forged-token DoS
//     discipline PR 3 introduced.
//   - detrand: the engine packages promise bitwise-deterministic output at
//     any worker count, so time.Now, the global math/rand generator, and
//     map-order iteration feeding output are forbidden there.
//   - lockheld: struct fields annotated `// guarded by <mu>` must only be
//     touched with the mutex held (or from *Locked-suffixed helpers whose
//     callers hold it) — a conservative intra-procedural check.
//   - retain: enumerator-owned buffers (Session.Next results are valid
//     only until the following call) must not escape across exported API
//     boundaries without a deep copy — the PR 2 retained-slice audit,
//     mechanized.
//   - ctxfirst: exported engine entry points taking a context.Context must
//     check (or thread) it before the first layer-sized allocation or
//     Build call — the cancellation discipline of the robustness PR: a
//     cancelled caller must not pay for a precomputation it will discard.
//
// A finding can be suppressed with a justified pragma on its line or the
// line above:
//
//	//nfalint:ignore <analyzer> <reason>
//
// The reason is mandatory and the pragma must actually suppress something:
// malformed, unknown-analyzer, and unused pragmas are findings themselves,
// so stale ignores rot loudly. Run the suite with
//
//	go run ./cmd/nfalint ./...
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the analyzer that raised it, and
// the message. The runner renders it as "file:line:col: [analyzer] message".
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Pkg is one loaded, type-checked package: the unit every analyzer runs on.
type Pkg struct {
	Path  string // import path ("repro/internal/lengthrange")
	Name  string // package name ("lengthrange")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// finding is the analyzers' constructor: it resolves the position eagerly
// so findings sort and render without the FileSet.
func (p *Pkg) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	pp := p.Fset.Position(pos)
	return Finding{
		Pos:      pp,
		File:     pp.Filename,
		Line:     pp.Line,
		Col:      pp.Column,
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the id used in findings and ignore pragmas.
	Name string
	// Doc is the one-line description (-list).
	Doc string
	// Contract names the prose contract the analyzer mechanizes, for the
	// "Enforced invariants" docs.
	Contract string
	// Packages restricts the analyzer to packages with these base names
	// (nil = every package). detrand uses it: determinism is an engine
	// contract, not a CLI one.
	Packages []string
	// Run reports the analyzer's findings for one package.
	Run func(*Pkg) []Finding
}

// appliesTo reports whether the analyzer runs on the package.
func (a *Analyzer) appliesTo(p *Pkg) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, name := range a.Packages {
		if p.Name == name {
			return true
		}
	}
	return false
}

// All returns the suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{fpfirstAnalyzer, detrandAnalyzer, lockheldAnalyzer, retainAnalyzer, ctxfirstAnalyzer}
}

// ByName returns the analyzer with the given id, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Suppression records one finding silenced by an ignore pragma — the
// runner's JSON report archives them so every waived invariant stays
// auditable.
type Suppression struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
	Message  string `json:"message"`
}

// Report is the outcome of a suite run over a set of packages.
type Report struct {
	Packages    []string      `json:"packages"`
	Findings    []Finding     `json:"findings"`
	Suppressed  []Suppression `json:"suppressed"`
	AnalyzerIDs []string      `json:"analyzers"`
}

// pragmaMarker introduces an ignore pragma.
const pragmaMarker = "//nfalint:ignore"

// pragma is one parsed ignore directive.
type pragma struct {
	file     string
	line     int
	analyzer string
	reason   string
	used     bool
}

// collectPragmas parses every //nfalint:ignore comment in the package.
// Malformed pragmas (missing analyzer or reason, unknown analyzer id)
// surface as findings from the pseudo-analyzer "pragma".
func collectPragmas(p *Pkg) ([]*pragma, []Finding) {
	var pragmas []*pragma
	var bad []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, pragmaMarker) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, pragmaMarker)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, p.finding("pragma", c.Pos(),
						"malformed ignore pragma: want %s <analyzer> <reason>", pragmaMarker))
					continue
				}
				name := fields[0]
				if name != "*" && ByName(name) == nil {
					bad = append(bad, p.finding("pragma", c.Pos(),
						"ignore pragma names unknown analyzer %q", name))
					continue
				}
				pos := p.Fset.Position(c.Pos())
				pragmas = append(pragmas, &pragma{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: name,
					reason:   strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name)),
				})
			}
		}
	}
	return pragmas, bad
}

// matches reports whether the pragma silences the finding: same file, the
// finding's line or the line right below the pragma, matching analyzer.
func (pr *pragma) matches(f Finding) bool {
	if pr.file != f.File {
		return false
	}
	if pr.line != f.Line && pr.line != f.Line-1 {
		return false
	}
	return pr.analyzer == "*" || pr.analyzer == f.Analyzer
}

// RunPackages runs the given analyzers (nil = All) over the loaded
// packages, applies ignore pragmas, and returns the consolidated report.
// Unused pragmas are findings: an ignore that silences nothing is stale
// and must be deleted.
func RunPackages(pkgs []*Pkg, analyzers []*Analyzer) Report {
	if analyzers == nil {
		analyzers = All()
	}
	rep := Report{}
	for _, a := range analyzers {
		rep.AnalyzerIDs = append(rep.AnalyzerIDs, a.Name)
	}
	for _, p := range pkgs {
		rep.Packages = append(rep.Packages, p.Path)
		pragmas, bad := collectPragmas(p)
		rep.Findings = append(rep.Findings, bad...)
		for _, a := range analyzers {
			if !a.appliesTo(p) {
				continue
			}
			for _, f := range a.Run(p) {
				suppressed := false
				for _, pr := range pragmas {
					if pr.matches(f) {
						pr.used = true
						suppressed = true
						rep.Suppressed = append(rep.Suppressed, Suppression{
							File: f.File, Line: f.Line, Analyzer: f.Analyzer,
							Reason: pr.reason, Message: f.Message,
						})
						break
					}
				}
				if !suppressed {
					rep.Findings = append(rep.Findings, f)
				}
			}
		}
		for _, pr := range pragmas {
			if !pr.used {
				rep.Findings = append(rep.Findings, Finding{
					File: pr.file, Line: pr.line, Col: 1, Analyzer: "pragma",
					Message: fmt.Sprintf("unused ignore pragma for %q (nothing to suppress — delete it)", pr.analyzer),
				})
			}
		}
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return rep
}
