// Package faultsuite is the engine-wide fault-injection and cancellation
// suite: it drives the deterministic injection registry
// (internal/faultinject) and real context cancellation through full
// core-engine workloads and asserts the robustness PR's contracts —
// prompt cancellation (at most one delivery batch after cancel), no
// goroutine leaks, resume tokens minted under injected faults that
// resume bitwise-identically, and partial builds that are released so
// the next caller rebuilds cleanly.
//
// The registry is env-gated (NFA_FAULTS); the suite arms it through
// t.Setenv, so it runs in a plain `go test ./...` and under the CI
// fault-injection job alike.
package faultsuite

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/enumerate"
	"repro/internal/faultinject"
	"repro/internal/instcache"
	"repro/internal/leakcheck"
)

// arm configures one injection arm (and registers cleanup that disarms
// it), failing the test on any configuration error.
func arm(t *testing.T, spec string) {
	t.Helper()
	t.Setenv("NFA_FAULTS", "1")
	if err := faultinject.Configure(spec); err != nil {
		t.Fatalf("Configure(%q): %v", spec, err)
	}
	t.Cleanup(faultinject.Reset)
}

// blowup is a deliberately ambiguous automaton with a big witness set —
// enough words at moderate lengths that injected faults and cancels land
// mid-stream, not after exhaustion.
func blowup(t *testing.T) *automata.NFA {
	t.Helper()
	return automata.SubsetBlowup(3)
}

// newInstance builds a core instance or fails.
func newInstance(t *testing.T, n *automata.NFA, length int, opts core.Options) *core.Instance {
	t.Helper()
	inst, err := core.New(n, length, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// drain pulls every word out of a session, formatting with the
// instance's alphabet, and returns the words plus the session error.
func drain(inst *core.Instance, s enumerate.Session) ([]string, error) {
	var out []string
	for {
		w, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, inst.FormatWord(w))
	}
	return out, s.Err()
}

// canonical enumerates the full language once, fault-free.
func canonical(t *testing.T, inst *core.Instance, opts core.CursorOptions) []string {
	t.Helper()
	s, err := inst.Enumerate(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	words, serr := drain(inst, s)
	if serr != nil {
		t.Fatalf("canonical enumeration failed: %v", serr)
	}
	return words
}

// resumeAndCompare resumes from tok, drains to the end, and asserts
// prefix+suffix is bitwise identical to want.
func resumeAndCompare(t *testing.T, inst *core.Instance, tok string, prefix, want []string, opts core.CursorOptions) {
	t.Helper()
	opts.Cursor = tok
	s, err := inst.Enumerate(opts)
	if err != nil {
		t.Fatalf("resume from fault token: %v", err)
	}
	defer s.Close()
	suffix, serr := drain(inst, s)
	if serr != nil {
		t.Fatalf("resumed session failed: %v", serr)
	}
	got := append(append([]string{}, prefix...), suffix...)
	if len(got) != len(want) {
		t.Fatalf("prefix(%d)+resume(%d) = %d words, canonical %d", len(prefix), len(suffix), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: resumed stream %q, canonical %q", i, got[i], want[i])
		}
	}
}

// TestDeliveryBatchFaultTokenResumes: an injected fault at the serial
// delivery-batch boundary stops the session with ErrInjected, the token
// it leaves behind is the true frontier, and resuming completes the
// language bitwise-identically.
func TestDeliveryBatchFaultTokenResumes(t *testing.T) {
	leakcheck.Check(t)
	nfa := blowup(t)
	inst := newInstance(t, nfa, 8, core.Options{})
	want := canonical(t, inst, core.CursorOptions{})

	arm(t, "enumerate.delivery.batch:2")
	s, err := inst.Enumerate(core.CursorOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	prefix, serr := drain(inst, s)
	s.Close()
	if !errors.Is(serr, faultinject.ErrInjected) {
		t.Fatalf("session error %v, want ErrInjected", serr)
	}
	if len(prefix) == 0 || len(prefix) >= len(want) {
		t.Fatalf("fault landed outside the stream: %d of %d words", len(prefix), len(want))
	}
	tok, ok := s.Token()
	if !ok {
		t.Fatal("faulted session minted no token — cancel must be a checkpoint")
	}
	faultinject.Reset()
	resumeAndCompare(t, inst, tok, prefix, want, core.CursorOptions{})
}

// TestParallelFaultTokensResume: injected faults at the parallel
// scheduler's transition sites (steal split, merge spill, delivery
// batch) each stop the stream with a valid frontier token that resumes
// to the bitwise-identical language, and the stream's goroutines all
// exit.
func TestParallelFaultTokensResume(t *testing.T) {
	nfa := blowup(t)
	inst := newInstance(t, nfa, 8, core.Options{})
	popts := core.CursorOptions{Workers: 4, Ordered: true, StealThreshold: 1, MergeBudget: 8}
	want := canonical(t, inst, popts)

	for _, site := range []string{
		"enumerate.delivery.batch:3",
		"enumerate.steal.split:2",
		"enumerate.merge.spill:1",
	} {
		t.Run(site, func(t *testing.T) {
			leakcheck.Check(t)
			arm(t, site)
			o := popts
			o.Ctx = context.Background()
			s, err := inst.Enumerate(o)
			if err != nil {
				t.Fatal(err)
			}
			prefix, serr := drain(inst, s)
			tok, ok := s.Token()
			s.Close()
			if serr == nil {
				// Some arms (a steal split) may not be reached on every
				// schedule if the stream drains first; the run must then be
				// complete and correct.
				if len(prefix) != len(want) {
					t.Fatalf("no fault fired but stream is short: %d of %d", len(prefix), len(want))
				}
				return
			}
			if !errors.Is(serr, faultinject.ErrInjected) {
				t.Fatalf("session error %v, want ErrInjected", serr)
			}
			if !ok {
				t.Fatal("faulted parallel stream minted no token")
			}
			faultinject.Reset()
			resumeAndCompare(t, inst, tok, prefix, want, popts)
		})
	}
}

// TestRangeAdvanceFaultTokenResumes: a fault injected at the range
// session's length-advance boundary leaves an el1:R: checkpoint that
// resumes the cross-length union bitwise-identically.
func TestRangeAdvanceFaultTokenResumes(t *testing.T) {
	leakcheck.Check(t)
	nfa := automata.All(automata.Binary())
	inst := newInstance(t, nfa, 6, core.Options{})
	lo, hi := 0, 6
	full, err := inst.EnumerateRange(lo, hi, core.CursorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, serr := drain(inst, full)
	full.Close()
	if serr != nil {
		t.Fatal(serr)
	}

	arm(t, "lengthrange.session.advance:3")
	s, err := inst.EnumerateRange(lo, hi, core.CursorOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	prefix, serr := drain(inst, s)
	tok, ok := s.Token()
	s.Close()
	if !errors.Is(serr, faultinject.ErrInjected) {
		t.Fatalf("session error %v, want ErrInjected", serr)
	}
	if !ok {
		t.Fatal("faulted range session minted no token")
	}
	if len(prefix) == 0 || len(prefix) >= len(want) {
		t.Fatalf("fault landed outside the union: %d of %d words", len(prefix), len(want))
	}
	faultinject.Reset()
	rs, err := inst.EnumerateRange(lo, hi, core.CursorOptions{Cursor: tok})
	if err != nil {
		t.Fatalf("resume from range fault token: %v", err)
	}
	suffix, serr := drain(inst, rs)
	rs.Close()
	if serr != nil {
		t.Fatal(serr)
	}
	got := append(prefix, suffix...)
	if len(got) != len(want) {
		t.Fatalf("prefix+resume = %d words, canonical %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("word %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// TestBuildLayerFaultsReleasePartialBuilds: injected faults inside the
// counting-index sweep (reached through a single-length entry point and
// through a range one) and the fpras backward sweep surface as errors
// from the triggering entry point, and the next call — after disarming —
// rebuilds from scratch and succeeds: a failed build leaves no poisoned
// cached state behind.
func TestBuildLayerFaultsReleasePartialBuilds(t *testing.T) {
	leakcheck.Check(t)
	t.Run("single-length", func(t *testing.T) {
		inst := newInstance(t, automata.All(automata.Binary()), 8, core.Options{})
		arm(t, "lengthrange.build.layer:2")
		if _, err := inst.Rank(automata.Word{0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Rank under injection: %v, want ErrInjected", err)
		}
		faultinject.Reset()
		if _, err := inst.Rank(automata.Word{0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatalf("rebuild after failed build: %v", err)
		}
	})
	t.Run("lengthrange", func(t *testing.T) {
		inst := newInstance(t, automata.All(automata.Binary()), 6, core.Options{})
		arm(t, "lengthrange.build.layer:2")
		if _, err := inst.TotalRange(0, 6); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("TotalRange under injection: %v, want ErrInjected", err)
		}
		faultinject.Reset()
		if _, err := inst.TotalRange(0, 6); err != nil {
			t.Fatalf("rebuild after failed build: %v", err)
		}
	})
	t.Run("fpras", func(t *testing.T) {
		inst := newInstance(t, blowup(t), 6, core.Options{K: 8})
		arm(t, "fpras.build.layer:2")
		if _, _, err := inst.CountCtx(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("CountCtx under injection: %v, want ErrInjected", err)
		}
		faultinject.Reset()
		if _, _, err := inst.CountCtx(context.Background()); err != nil {
			t.Fatalf("rebuild after failed build: %v", err)
		}
	})
}

// TestCacheFillFaultLeavesCacheClean: a fault injected at the compiled-
// index cache's fill boundary fails the query before any build starts,
// leaves no entry (and no flight) behind, and after disarming the same
// shared cache serves the retried build — including a warm hit for a
// relabelled isomorph of the automaton.
func TestCacheFillFaultLeavesCacheClean(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(31))
	n := automata.Trim(automata.RandomDFA(rng, automata.Binary(), 12, 0.5))
	r := automata.Relabel(n, rng.Perm(n.NumStates()))
	cache := instcache.New(instcache.DefaultBudget)
	inst := newInstance(t, n, 8, core.Options{Cache: cache})

	arm(t, "instcache.fill:1")
	if _, err := inst.Rank(automata.Word{0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Rank under injection: %v, want ErrInjected", err)
	}
	if st := cache.Stats(); st.Builds != 0 || st.Entries != 0 {
		t.Fatalf("faulted fill must not build or retain anything: %+v", st)
	}
	faultinject.Reset()
	if _, err := inst.Unrank(big.NewInt(0)); err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	inst2 := newInstance(t, r, 8, core.Options{Cache: cache})
	if _, err := inst2.Unrank(big.NewInt(0)); err != nil {
		t.Fatalf("relabelled instance after fault: %v", err)
	}
	st := cache.Stats()
	if st.Builds != 1 || st.Hits == 0 {
		t.Fatalf("relabelled instance should hit the recovered entry: %+v", st)
	}
}

// TestSampleChunkFaultDeterministicRetry: a fault injected at a sample
// chunk boundary fails the batch; after disarming, the retried batch is
// bitwise identical to a never-faulted batch (chunk RNG streams derive
// from (seed, chunk), so a fault cannot perturb them). The RelationNL
// batch crosses the same site between its per-witness Las Vegas draws,
// whose streams derive from (seed, draw), after the estimator is built.
func TestSampleChunkFaultDeterministicRetry(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		name  string
		inst  *core.Instance
		class core.Class
		k     int
		spec  string
	}{
		{"UL", newInstance(t, automata.All(automata.Binary()), 8, core.Options{Seed: 7}), core.ClassUL, 300, "sample.chunk:2"},
		{"NL", newInstance(t, blowup(t), 10, core.Options{K: 24, Seed: 7}), core.ClassNL, 24, "sample.chunk:3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := c.inst
			if inst.Class() != c.class {
				t.Fatalf("class %v, want %v", inst.Class(), c.class)
			}
			wantWs, err := inst.SampleManyParallel(c.k, 4)
			if err != nil {
				t.Fatal(err)
			}
			arm(t, c.spec)
			if _, err := inst.SampleManyParallelCtx(context.Background(), c.k, 4); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("sampling under injection: %v, want ErrInjected", err)
			}
			faultinject.Reset()
			gotWs, err := inst.SampleManyParallelCtx(context.Background(), c.k, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotWs) != len(wantWs) {
				t.Fatalf("retried batch has %d draws, want %d", len(gotWs), len(wantWs))
			}
			for i := range wantWs {
				if inst.FormatWord(gotWs[i]) != inst.FormatWord(wantWs[i]) {
					t.Fatalf("draw %d differs after faulted attempt: %q vs %q",
						i, inst.FormatWord(gotWs[i]), inst.FormatWord(wantWs[i]))
				}
			}
		})
	}
}

// TestPromptCancellationSerial: a cancelled serial session stops within
// one delivery batch of the cancel, and its token checkpoints the true
// position.
func TestPromptCancellationSerial(t *testing.T) {
	leakcheck.Check(t)
	nfa := blowup(t)
	inst := newInstance(t, nfa, 8, core.Options{})
	want := canonical(t, inst, core.CursorOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	s, err := inst.Enumerate(core.CursorOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	var prefix []string
	cancelled := false
	after := 0
	for {
		w, ok := s.Next()
		if !ok {
			break
		}
		prefix = append(prefix, inst.FormatWord(w))
		if cancelled {
			after++
		}
		if !cancelled && len(prefix) == 10 {
			cancel()
			cancelled = true
		}
	}
	s.Close()
	if !cancelled {
		t.Fatalf("language too small: drained %d words before cancel point", len(prefix))
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("session error %v, want context.Canceled", s.Err())
	}
	if after > enumerate.DefaultDeliveryBatch {
		t.Fatalf("session delivered %d words after cancel, want ≤ %d", after, enumerate.DefaultDeliveryBatch)
	}
	tok, ok := s.Token()
	if !ok {
		t.Fatal("cancelled session minted no token")
	}
	resumeAndCompare(t, inst, tok, prefix, want, core.CursorOptions{})
	cancel()
}

// TestPromptCancellationParallel: a cancelled parallel stream delivers
// at most one private delivery batch after cancel, joins all its
// goroutines on Close, and checkpoints a frontier that resumes
// bitwise-identically (ordered mode).
func TestPromptCancellationParallel(t *testing.T) {
	leakcheck.Check(t)
	nfa := blowup(t)
	inst := newInstance(t, nfa, 8, core.Options{})
	popts := core.CursorOptions{Workers: 4, Ordered: true, MergeBudget: 16}
	want := canonical(t, inst, popts)

	ctx, cancel := context.WithCancel(context.Background())
	o := popts
	o.Ctx = ctx
	s, err := inst.Enumerate(o)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []string
	cancelled := false
	after := 0
	for {
		w, ok := s.Next()
		if !ok {
			break
		}
		prefix = append(prefix, inst.FormatWord(w))
		if cancelled {
			after++
		}
		if !cancelled && len(prefix) == 20 {
			cancel()
			cancelled = true
		}
	}
	serr := s.Err()
	tok, ok := s.Token()
	s.Close()
	if !cancelled {
		t.Fatalf("language too small: drained %d words before cancel point", len(prefix))
	}
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("stream error %v, want context.Canceled", serr)
	}
	// The consumer may finish the private batch it had already popped —
	// at most one delivery batch after the cancel returns.
	if after > enumerate.DefaultDeliveryBatch {
		t.Fatalf("stream delivered %d words after cancel, want ≤ %d", after, enumerate.DefaultDeliveryBatch)
	}
	if !ok {
		t.Fatal("cancelled stream minted no token")
	}
	resumeAndCompare(t, inst, tok, prefix, want, popts)
	cancel()
}

// TestCancellationWinsOverInjection: when a context is already cancelled,
// Check reports the cancellation and does NOT consume the armed hit —
// the ordinal stays deterministic for the code path that reaches it
// without a cancelled context.
func TestCancellationWinsOverInjection(t *testing.T) {
	leakcheck.Check(t)
	arm(t, "enumerate.delivery.batch:1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := faultinject.Check(ctx, faultinject.SiteDeliveryBatch); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check under cancelled ctx: %v, want context.Canceled", err)
	}
	if err := faultinject.Check(context.Background(), faultinject.SiteDeliveryBatch); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed hit was consumed by the cancelled check: %v", err)
	}
}

// TestUnorderedCancelKeepsMultiset: in unordered (throughput) mode a
// cancel checkpoint still partitions the language exactly: the words
// delivered before the cancel plus the words of the resumed session are
// the full language as a multiset.
func TestUnorderedCancelKeepsMultiset(t *testing.T) {
	leakcheck.Check(t)
	nfa := blowup(t)
	inst := newInstance(t, nfa, 8, core.Options{})
	popts := core.CursorOptions{Workers: 4, Ordered: false, MergeBudget: 16}
	want := canonical(t, inst, core.CursorOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	o := popts
	o.Ctx = ctx
	s, err := inst.Enumerate(o)
	if err != nil {
		t.Fatal(err)
	}
	var prefix []string
	for {
		w, ok := s.Next()
		if !ok {
			break
		}
		prefix = append(prefix, inst.FormatWord(w))
		if len(prefix) == 25 {
			cancel()
		}
	}
	serr := s.Err()
	tok, ok := s.Token()
	s.Close()
	if serr == nil || !ok {
		t.Fatalf("cancel did not checkpoint: err=%v ok=%v", serr, ok)
	}
	opts := popts
	opts.Cursor = tok
	rs, err := inst.Enumerate(opts)
	if err != nil {
		t.Fatal(err)
	}
	suffix, serr := drain(inst, rs)
	rs.Close()
	if serr != nil {
		t.Fatal(serr)
	}
	got := append(prefix, suffix...)
	sort.Strings(got)
	wantSorted := append([]string{}, want...)
	sort.Strings(wantSorted)
	if len(got) != len(wantSorted) {
		t.Fatalf("prefix+resume = %d words, language has %d", len(got), len(wantSorted))
	}
	for i := range wantSorted {
		if got[i] != wantSorted[i] {
			t.Fatalf("multiset differs at %d: %q vs %q", i, got[i], wantSorted[i])
		}
	}
	cancel()
}
