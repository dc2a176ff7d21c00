package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

func TestParseTenantLimits(t *testing.T) {
	got, err := parseTenantLimits("free:length=64,states=8; paid:length=4096")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["free"] == nil || got["paid"] == nil {
		t.Fatalf("parsed %v", got)
	}
	if err := got["free"].CheckLength(65); err == nil {
		t.Fatal("free tenant should reject length 65")
	}
	if err := got["paid"].CheckLength(65); err != nil {
		t.Fatalf("paid tenant should admit length 65: %v", err)
	}
	for _, bad := range []string{"nolimits", ":length=4", "t:length=x"} {
		if _, err := parseTenantLimits(bad); err == nil {
			t.Errorf("spec %q should not parse", bad)
		}
	}
}

// TestServeAndDrain boots the real binary entry point on a loopback port,
// serves one request, then cancels the context (the SIGTERM path) and
// asserts a clean drain: exit 0, "drained" announced, no goroutines left.
func TestServeAndDrain(t *testing.T) {
	leakcheck.Check(t)

	// Reserve a free port, release it, and hand it to the server. The gap
	// is racy in principle; in a test process that owns the machine slice
	// it is reliable, and run() reports a bind failure loudly if lost.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errOut strings.Builder
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-limits", "length=1024", "-drain", "5s"}, &out, &errOut)
	}()

	// Wait for the listener, then exercise one request end to end.
	url := "http://" + addr
	var resp *http.Response
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(url + "/healthz")
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v (stderr %q)", err, errOut.String())
	}
	resp.Body.Close()

	body := `{"automaton": "alphabet: 0 1\nstates: 1\nstart: 0\nfinal: 0\n0 0 0\n0 1 0\n", "n": 4, "limit": 100}`
	pr, err := http.Post(url+"/v1/enum", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Words []string `json:"words"`
		Done  bool     `json:"done"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || len(page.Words) != 16 || !page.Done {
		t.Fatalf("enum through the binary: status %d, %d words, done=%v", pr.StatusCode, len(page.Words), page.Done)
	}

	cancel()
	select {
	case code := <-done:
		if code != exitOK {
			t.Fatalf("exit %d after drain, want 0 (stderr %q)", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Fatalf("drain not announced: %q", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-limits", "bogus"},
		{"-tenant-limits", "noseparator"},
		{"-not-a-flag"},
	} {
		var out, errOut strings.Builder
		if code := run(context.Background(), args, &out, &errOut); code != exitUsage {
			t.Errorf("args %v: exit %d, want %d", args, code, exitUsage)
		}
	}
}
