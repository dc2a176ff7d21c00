package analysis

// The corpus harness: each testdata/<name>/ directory is a standalone
// package seeded with violations, annotated in-line with
//
//	// want <analyzer> "message substring"
//
// on the line the finding must land on. The harness asserts an exact
// bijection: every finding matches a want, every want is matched.

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile(`want ([a-z]+) "([^"]+)"`)

type wantMark struct {
	line     int
	analyzer string
	substr   string
	matched  bool
}

func parseWants(t *testing.T, p *Pkg) []*wantMark {
	t.Helper()
	var ws []*wantMark
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					ws = append(ws, &wantMark{
						line:     p.Fset.Position(c.Pos()).Line,
						analyzer: m[1],
						substr:   m[2],
					})
				}
			}
		}
	}
	if len(ws) == 0 {
		t.Fatalf("%s: corpus has no want marks — harness would pass vacuously", p.Path)
	}
	return ws
}

func checkCorpus(t *testing.T, p *Pkg, findings []Finding) {
	t.Helper()
	wants := parseWants(t, p)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.line == f.Line && w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: line %d [%s] containing %q", w.line, w.analyzer, w.substr)
		}
	}
}

// loadCorpus loads one testdata package.
func loadCorpus(t *testing.T, name string) *Pkg {
	t.Helper()
	p, err := LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runCorpus is the single-analyzer harness entry point.
func runCorpus(t *testing.T, name string) {
	t.Helper()
	a := ByName(name)
	if a == nil {
		t.Fatalf("no analyzer %q", name)
	}
	p := loadCorpus(t, name)
	checkCorpus(t, p, a.Run(p))
}

func TestCtxfirstCorpus(t *testing.T) { runCorpus(t, "ctxfirst") }
func TestFpfirstCorpus(t *testing.T)  { runCorpus(t, "fpfirst") }
func TestDetrandCorpus(t *testing.T)  { runCorpus(t, "detrand") }
func TestLockheldCorpus(t *testing.T) { runCorpus(t, "lockheld") }
func TestRetainCorpus(t *testing.T)   { runCorpus(t, "retain") }

// TestPragmaCorpus drives the full runner (pragmas are runner-level): the
// justified pragmas suppress their findings, and the malformed / unknown /
// unused ones surface as pragma findings.
func TestPragmaCorpus(t *testing.T) {
	p := loadCorpus(t, "pragma")
	rep := RunPackages([]*Pkg{p}, nil)
	checkCorpus(t, p, rep.Findings)
	if got := len(rep.Suppressed); got != 2 {
		t.Errorf("suppressions = %d, want 2 (named + wildcard)", got)
	}
	for _, s := range rep.Suppressed {
		if s.Reason == "" {
			t.Errorf("suppression at %s:%d has no reason", s.File, s.Line)
		}
	}
}
