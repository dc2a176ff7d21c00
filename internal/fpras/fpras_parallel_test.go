package fpras

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/automata"
	"repro/internal/leakcheck"
)

// workerCounts are the parallelism levels every equivalence test sweeps:
// serial, a fixed small pool, and whatever the machine offers.
func workerCounts() []int {
	counts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

// The parallel build must be bitwise-reproducible: for a fixed seed the
// estimate is a function of Params alone, never of the worker count or the
// scheduler. This is the contract that makes Workers purely a performance
// knob.
func TestParallelBuildBitwiseEquivalent(t *testing.T) {
	leakcheck.Check(t)
	cases := []struct {
		name   string
		nfa    *automata.NFA
		length int
		k      int
	}{
		{"gap(10)", automata.AmbiguityGap(10), 10, 32},
		{"gapwide(12,4)", automata.AmbiguityGapWide(12, 4), 12, 48},
		{"blowup(6)", automata.SubsetBlowup(6), 14, 64},
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3; i++ {
		cases = append(cases, struct {
			name   string
			nfa    *automata.NFA
			length int
			k      int
		}{fmt.Sprintf("layered-%d", i), automata.RandomLayered(rng, automata.Binary(), 12, 4, 2), 12, 32})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want string
			wantExact := false
			for i, w := range workerCounts() {
				est, err := New(c.nfa, c.length, Params{K: c.k, Seed: 7, Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got := est.Count().Text('p', 0) // full-precision hex: bitwise comparison
				if i == 0 {
					want, wantExact = got, est.Exact()
					continue
				}
				if got != want {
					t.Fatalf("workers=%d: count %s, want %s (workers=1)", w, got, want)
				}
				if est.Exact() != wantExact {
					t.Fatalf("workers=%d: exact=%v, want %v", w, est.Exact(), wantExact)
				}
			}
		})
	}
}

// SampleN must be deterministic the same way: sample i comes from its own
// seed-derived stream, so the batch is identical for every worker count,
// and SampleNCtx with a live ctx returns the same batch (its checks sit
// between draws and touch no stream).
func TestSampleNDeterministicAcrossWorkers(t *testing.T) {
	leakcheck.Check(t)
	est, err := New(automata.AmbiguityGap(8), 8, Params{K: 24, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if est.Exact() {
		t.Fatal("|L_8| = 256 exceeds K = 24; estimator must be approximate")
	}
	const k = 32
	var want []automata.Word
	for _, w := range workerCounts() {
		for _, ctx := range []context.Context{nil, context.Background()} {
			got, err := est.SampleNCtx(ctx, k, w)
			if err != nil {
				t.Fatalf("workers=%d ctx=%v: %v", w, ctx, err)
			}
			if len(got) != k {
				t.Fatalf("workers=%d ctx=%v: %d samples, want %d", w, ctx, len(got), k)
			}
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("workers=%d ctx=%v: sample %d = %v, want %v", w, ctx, i, got[i], want[i])
				}
			}
		}
	}
}

// SampleN outputs must still be witnesses of the right length.
func TestSampleNProducesWitnesses(t *testing.T) {
	n := automata.SubsetBlowup(5)
	est, err := New(n, 12, Params{K: 48, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := est.SampleN(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if len(w) != 12 || !n.Accepts(w) {
			t.Fatalf("sample %d is not a witness: %v", i, w)
		}
	}
}

// cancelAfterCtx reports cancellation from its (n+1)-th Err call on and
// counts the calls, so a test can cancel between two given checkpoints
// and see how many checkpoints were passed in total.
type cancelAfterCtx struct {
	context.Context
	left, calls atomic.Int64
}

func newCancelAfterCtx(n int64) *cancelAfterCtx {
	c := &cancelAfterCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfterCtx) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A cancelled SampleNCtx returns ctx.Err() instead of a batch: a ctx
// cancelled up front stops it before any draw (and before the ErrEmpty
// answer), and a ctx cancelled mid-batch stops it at the next draw
// boundary rather than after the remaining draws.
func TestSampleNCtxCancelled(t *testing.T) {
	leakcheck.Check(t)
	est, err := New(automata.AmbiguityGap(8), 8, Params{K: 24, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if ws, err := est.SampleNCtx(cancelled, 32, 4); !errors.Is(err, context.Canceled) || ws != nil {
		t.Fatalf("cancelled ctx: got (%d words, %v), want (nil, context.Canceled)", len(ws), err)
	}
	empty, err := New(automata.Chain(automata.Binary(), automata.Word{0, 1}), 6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SampleNCtx(cancelled, 4, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx on an empty slice: %v, want context.Canceled", err)
	}
	const k = 256
	for _, w := range workerCounts() {
		// The entry check and the first three draws pass (two checks per
		// draw: the claim and the sample.chunk site); the fourth stops.
		ctx := newCancelAfterCtx(7)
		ws, err := est.SampleNCtx(ctx, k, w)
		if !errors.Is(err, context.Canceled) || ws != nil {
			t.Fatalf("workers=%d: cancelled mid-batch: got (%d words, %v), want (nil, context.Canceled)", w, len(ws), err)
		}
		if calls := ctx.calls.Load(); calls > int64(8+2*w) {
			t.Fatalf("workers=%d: %d ctx checks in all for a cancel at the fourth draw: the batch of %d kept drawing", w, calls, k)
		}
	}
}

func TestSampleNEdgeCases(t *testing.T) {
	empty, err := New(automata.Chain(automata.Binary(), automata.Word{0, 1}), 6, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.SampleN(4, 2); err != ErrEmpty {
		t.Fatalf("empty language: want ErrEmpty, got %v", err)
	}
	est, err := New(automata.AmbiguityGap(6), 6, Params{K: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if ws, err := est.SampleN(0, 4); err != nil || ws != nil {
		t.Fatalf("k=0: want (nil, nil), got (%v, %v)", ws, err)
	}
}

// Exported sampling entry points must be race-free under mixed concurrent
// use: Sample/SampleWitness on the guarded internal RNG, SampleWith with
// per-goroutine RNGs, and SampleN — all against one shared estimator.
// (Meaningful under `go test -race`.)
func TestConcurrentSamplingIsRaceFree(t *testing.T) {
	leakcheck.Check(t)
	est, err := New(automata.AmbiguityGap(8), 8, Params{K: 24, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g + 1)))
			for i := 0; i < 20; i++ {
				switch g % 4 {
				case 0:
					if _, err := est.Sample(); err != nil && err != ErrFail {
						t.Error(err)
					}
				case 1:
					if _, err := est.SampleWith(rng); err != nil && err != ErrFail {
						t.Error(err)
					}
				case 2:
					if _, err := est.SampleWitnessWith(rng, 200); err != nil && err != ErrFail {
						t.Error(err)
					}
				default:
					if _, err := est.SampleN(4, 2); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// The default worker count comes from GOMAXPROCS and is observable.
func TestWorkersDefault(t *testing.T) {
	est, err := New(automata.AmbiguityGap(6), 6, Params{K: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", est.Workers(), runtime.GOMAXPROCS(0))
	}
	est2, err := New(automata.AmbiguityGap(6), 6, Params{K: 24, Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if est2.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", est2.Workers())
	}
}

// benchNFA is the E5-shaped workload used by the build benchmarks.
func benchNFA(layers, width int) *automata.NFA {
	rng := rand.New(rand.NewSource(5))
	return automata.RandomLayered(rng, automata.Binary(), layers, width, 2)
}

func benchmarkBuild(b *testing.B, workers int) {
	nfa := benchNFA(20, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(nfa, 20, Params{K: 32, Seed: int64(i + 1), Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSerial(b *testing.B)   { benchmarkBuild(b, 1) }
func BenchmarkBuildWorkers4(b *testing.B) { benchmarkBuild(b, 4) }
func BenchmarkBuildWorkers8(b *testing.B) { benchmarkBuild(b, 8) }
func BenchmarkBuildGOMAXPROCS(b *testing.B) {
	benchmarkBuild(b, runtime.GOMAXPROCS(0))
}

func benchmarkSampleN(b *testing.B, workers int) {
	est, err := New(automata.AmbiguityGap(10), 10, Params{K: 32, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SampleN(16, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleNSerial(b *testing.B)   { benchmarkSampleN(b, 1) }
func BenchmarkSampleNWorkers4(b *testing.B) { benchmarkSampleN(b, 4) }
