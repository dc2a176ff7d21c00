package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestDisabledWithoutEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	Reset()
	if err := Configure("sample.chunk:1"); !errors.Is(err, ErrDisabled) {
		t.Fatalf("Configure without %s = %v, want ErrDisabled", EnvVar, err)
	}
	if Enabled() {
		t.Fatal("Enabled() = true after rejected Configure")
	}
	if err := Hit(SiteSampleChunk); err != nil {
		t.Fatalf("Hit with no config = %v, want nil", err)
	}
	if err := Check(context.Background(), SiteSampleChunk); err != nil {
		t.Fatalf("Check with no config = %v, want nil", err)
	}
}

func TestFireAtNthHit(t *testing.T) {
	t.Setenv(EnvVar, "1")
	t.Cleanup(Reset)
	if err := Configure("lengthrange.build.layer:3"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Enabled() = false after Configure")
	}
	for i := 1; i <= 5; i++ {
		err := Hit(SiteRangeLayer)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: err = %v, want nil", i, err)
		}
	}
	// Unarmed sites never fire.
	if err := Hit(SiteSampleChunk); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestConfigureReplacesAndResets(t *testing.T) {
	t.Setenv(EnvVar, "1")
	t.Cleanup(Reset)
	if err := Configure("sample.chunk:1"); err != nil {
		t.Fatal(err)
	}
	if err := Hit(SiteSampleChunk); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed site did not fire: %v", err)
	}
	// Re-Configure resets hit counters: the same site fires again.
	if err := Configure("sample.chunk:1"); err != nil {
		t.Fatal(err)
	}
	if err := Hit(SiteSampleChunk); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-armed site did not fire: %v", err)
	}
	Reset()
	if Enabled() {
		t.Fatal("Enabled() = true after Reset")
	}
	if err := Hit(SiteSampleChunk); err != nil {
		t.Fatalf("Hit after Reset = %v, want nil", err)
	}
}

func TestConfigureSpecErrors(t *testing.T) {
	t.Setenv(EnvVar, "1")
	t.Cleanup(Reset)
	for _, spec := range []string{
		"",
		"   ",
		"nosuchsite:1",
		"sample.chunk",
		"sample.chunk:0",
		"sample.chunk:-1",
		"sample.chunk:x",
		"sample.chunk:1,bogus:2",
	} {
		if err := Configure(spec); err == nil {
			t.Errorf("Configure(%q) succeeded, want error", spec)
		}
	}
	// Bad specs must not arm anything.
	if Enabled() {
		t.Fatal("Enabled() = true after only failed Configures")
	}
	// Multiple valid entries, whitespace tolerated.
	if err := Configure(" sample.chunk:2 , enumerate.delivery.batch:1 "); err != nil {
		t.Fatal(err)
	}
	if err := Hit(SiteDeliveryBatch); !errors.Is(err, ErrInjected) {
		t.Fatalf("delivery batch arm did not fire: %v", err)
	}
	if err := Hit(SiteSampleChunk); err != nil {
		t.Fatalf("sample chunk fired early: %v", err)
	}
	if err := Hit(SiteSampleChunk); !errors.Is(err, ErrInjected) {
		t.Fatalf("sample chunk arm did not fire on hit 2: %v", err)
	}
}

func TestCheckContextPrecedence(t *testing.T) {
	t.Setenv(EnvVar, "1")
	t.Cleanup(Reset)
	if err := Configure("sample.chunk:1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancellation wins over the armed site…
	if err := Check(ctx, SiteSampleChunk); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check(cancelled) = %v, want context.Canceled", err)
	}
	// …and does not consume a hit.
	if err := Check(context.Background(), SiteSampleChunk); !errors.Is(err, ErrInjected) {
		t.Fatalf("Check(live) = %v, want ErrInjected on first counted hit", err)
	}
	// nil ctx is the never-cancelled fast path.
	if err := Check(nil, SiteSampleChunk); err != nil {
		t.Fatalf("Check(nil) after fire = %v, want nil", err)
	}
}

func TestConcurrentHitsFireExactlyOnce(t *testing.T) {
	t.Setenv(EnvVar, "1")
	t.Cleanup(Reset)
	if err := Configure("enumerate.delivery.batch:50"); err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 25
	var fired sync.Map
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := Hit(SiteDeliveryBatch); errors.Is(err, ErrInjected) {
					fired.Store(g*perG+i, true)
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	fired.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("arm fired %d times across %d hits, want exactly 1", n, goroutines*perG)
	}
}

func TestSitesRegistryStable(t *testing.T) {
	sites := Sites()
	if len(sites) != 8 {
		t.Fatalf("registry has %d sites, want 8", len(sites))
	}
	seen := map[Site]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
	}
}
