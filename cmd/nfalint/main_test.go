package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"fpfirst", "detrand", "lockheld", "retain", "ctxfirst"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "contract:") {
		t.Errorf("-list output missing contracts:\n%s", out)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := runCLI(t, "-h"); code != 0 {
		t.Errorf("-h exit = %d, want 0", code)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, "-nosuchflag"); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := runCLI(t, "-only", "bogus")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown analyzer") {
		t.Errorf("stderr: %q", errOut)
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, "./nonexistent/..."); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestCleanRunWithJSON lints this command's own package (cwd during tests)
// and checks the -json artifact shape.
func TestCleanRunWithJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	code, out, errOut := runCLI(t, "-json", path, ".")
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	var rep struct {
		Packages  []string          `json:"packages"`
		Findings  []json.RawMessage `json:"findings"`
		Analyzers []string          `json:"analyzers"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	// `go list -deps` folds in-repo dependencies into the run, so this
	// package brings internal/analysis with it.
	if len(rep.Packages) < 1 || len(rep.Findings) != 0 || len(rep.Analyzers) != len(analysis.All()) {
		t.Errorf("report = %d packages, %d findings, %d analyzers; want ≥1, 0, %d",
			len(rep.Packages), len(rep.Findings), len(rep.Analyzers), len(analysis.All()))
	}
	found := false
	for _, p := range rep.Packages {
		if p == "repro/cmd/nfalint" {
			found = true
		}
	}
	if !found {
		t.Errorf("report packages %v missing repro/cmd/nfalint", rep.Packages)
	}
}
