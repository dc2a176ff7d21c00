package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the helper process for the signal e2e test: when
// SPANNER_CLI_HELPER is set, the test binary behaves exactly like the
// spanner CLI (same run() entry, same signal.NotifyContext wiring as
// main), so tests can exec it and deliver real signals mid-enumeration.
func TestMain(m *testing.M) {
	if os.Getenv("SPANNER_CLI_HELPER") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runSpanner invokes the CLI entry point in-process and returns
// (stdout, stderr, code).
func runSpanner(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(context.Background(), args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestCountAndEnum(t *testing.T) {
	out, _, code := runSpanner(t, "-rule", ".*(x: err).*", "-alphabet", "aber", "-doc", "abberraerr", "-count")
	if code != 0 {
		t.Fatalf("count exit %d", code)
	}
	if !strings.Contains(out, "mappings: 2") {
		t.Fatalf("count output %q, want 2 mappings", out)
	}
	out, errOut, code := runSpanner(t, "-rule", ".*(x: err).*", "-alphabet", "aber", "-doc", "abberraerr", "-enum", "-limit", "10")
	if code != 0 {
		t.Fatalf("enum exit %d: %s", code, errOut)
	}
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 2 {
		t.Fatalf("enum printed %d mappings, want 2:\n%s", got, out)
	}
}

// TestLimitsFlag: -limits rejects an over-limit document up front with
// an admission error, and a malformed spec is a failure, not a crash.
func TestLimitsFlag(t *testing.T) {
	// The encoded instance length exceeds the document length, so a tiny
	// length cap rejects this document before any precomputation.
	_, errOut, code := runSpanner(t, "-rule", ".*(x: err).*", "-alphabet", "aber", "-doc", "abberraerr", "-count", "-limits", "length=4")
	if code == 0 {
		t.Fatal("over-length document accepted")
	}
	if !strings.Contains(errOut, "admission") {
		t.Fatalf("rejection is not an admission error: %s", errOut)
	}
	if _, _, code := runSpanner(t, "-rule", ".*(x: err).*", "-alphabet", "aber", "-doc", "abberraerr", "-limits", "bogus=1"); code == 0 {
		t.Fatal("malformed -limits accepted")
	}
}

// TestNegativeStealIsUsageError: -steal takes a word count; a negative
// one is a usage error (exit 2), not a scheduler mode.
func TestNegativeStealIsUsageError(t *testing.T) {
	if _, _, code := runSpanner(t, "-rule", ".*(x: err).*", "-alphabet", "aber", "-doc", "abberraerr", "-enum", "-workers", "2", "-steal", "-1"); code != 2 {
		t.Fatalf("negative -steal: exit %d, want 2", code)
	}
}

// TestInterruptPrintsResumeToken execs the CLI (via the TestMain helper
// mode), delivers a real SIGINT mid-enumeration, and asserts the
// cooperative-shutdown contract: exit 130, a resume token on stderr, and
// a token that resumes cleanly.
func TestInterruptPrintsResumeToken(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A wildcard span over a long unary document: quadratically many
	// mappings, far more than can print before the signal lands; the
	// unread pipe backpressures the producer.
	doc := strings.Repeat("a", 1500)
	args := []string{"-rule", ".*(x: a*).*", "-alphabet", "a", "-doc", doc, "-enum"}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "SPANNER_CLI_HELPER=1")
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
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatalf("reading first mapping: %v (stderr: %s)", err, errBuf.String())
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	for {
		if _, rerr := r.Read(buf); rerr != nil {
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
	// The interrupt token resumes a clean in-process page.
	out, errOut, code := runSpanner(t, append(args, "-cursor", token, "-limit", "5")...)
	if code != 0 {
		t.Fatalf("resume from interrupt token failed (exit %d): %s", code, errOut)
	}
	if len(strings.Fields(out)) == 0 {
		t.Fatal("resumed page emitted no mappings")
	}
}

// statCounter extracts one counter from a "cache: ..." stderr line.
func statCounter(t *testing.T, stderr, name string) int {
	t.Helper()
	m := regexp.MustCompile(name + `=(\d+)`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("stderr has no %q counter: %q", name, stderr)
	}
	v := 0
	for _, c := range m[1] {
		v = v*10 + int(c-'0')
	}
	return v
}

// TestCacheStatsWarmPath: a second run of the same rule/document pair in
// one process is served from the process-wide compiled-index cache — no
// new build, at least one new hit, byte-identical stdout. Sampling is
// the cached path (counting on the unambiguous class bypasses the index
// by design), so the warm run draws samples. Deltas, not absolutes: the
// cache is shared across this package's tests.
func TestCacheStatsWarmPath(t *testing.T) {
	args := []string{"-rule", ".*(x: e(r)+).*", "-alphabet", "aber", "-doc", "abberraerr", "-sample", "3", "-seed", "11", "-cache-stats"}
	out1, err1, code := runSpanner(t, args...)
	if code != 0 {
		t.Fatalf("cold run: exit %d, stderr %q", code, err1)
	}
	out2, err2, code := runSpanner(t, args...)
	if code != 0 {
		t.Fatalf("warm run: exit %d, stderr %q", code, err2)
	}
	if out1 != out2 {
		t.Fatalf("warm stdout diverged:\ncold: %q\nwarm: %q", out1, out2)
	}
	if b1, b2 := statCounter(t, err1, "builds"), statCounter(t, err2, "builds"); b2 != b1 {
		t.Fatalf("warm run rebuilt: builds %d -> %d", b1, b2)
	}
	if h1, h2 := statCounter(t, err1, "hits"), statCounter(t, err2, "hits"); h2 <= h1 {
		t.Fatalf("warm run did not hit: hits %d -> %d", h1, h2)
	}
}
