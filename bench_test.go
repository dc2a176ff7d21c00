// Repository-level benchmarks: testing.B targets for the experiments of
// the internal/bench registry (F1, E1–E13; `benchtab -list` names them
// all). `go test -bench=. -benchmem` measures their timing side;
// `benchtab -only <id>` prints an experiment's full table (accuracy,
// uniformity, counts) around these timings.
package repro

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/automata"
	"repro/internal/baseline"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/enumerate"
	"repro/internal/exact"
	"repro/internal/fpras"
	"repro/internal/graphdb"
	"repro/internal/sample"
	"repro/internal/spanner"
)

// BenchmarkF1_PaperExample: the full worked example of Figures 1–2 —
// build, index, enumerate, count.
func BenchmarkF1_PaperExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, length := automata.PaperExample()
		e, err := enumerate.NewUFA(n, length)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(enumerate.Collect(n.Alphabet(), e, 0)); got != 4 {
			b.Fatalf("|L_3| = %d", got)
		}
		_ = exact.CountUFA(n, length)
	}
}

// BenchmarkE1_ConstantDelay: per-output cost of Algorithm 1 on a large
// unambiguous instance (precomputation excluded).
func BenchmarkE1_ConstantDelay(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dfa := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	e, err := enumerate.NewUFA(dfa, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Next(); !ok {
			b.StopTimer()
			e, err = enumerate.NewUFA(dfa, 24)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkE2_ExactCountUFA: the #L dynamic program at n = 1024.
func BenchmarkE2_ExactCountUFA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	dfa := automata.RandomDFA(rng, automata.Binary(), 32, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = exact.CountUFA(dfa, 1024)
	}
}

// BenchmarkE3_SampleUFA: exact uniform generation per draw (precomputation
// excluded).
func BenchmarkE3_SampleUFA(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dfa := automata.RandomDFA(rng, automata.Binary(), 32, 0.5)
	s, err := sample.NewUFASampler(dfa, 64)
	if err != nil {
		b.Fatal(err)
	}
	if s.TotalRange().Sign() == 0 {
		b.Skip("empty slice")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sample(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleUFA: per-draw cost of exact uniform sampling on the
// counting index of a 64-state depth-20 UFA — the workload of experiment
// E17. "indexed" is one uniform rank + one Unrank binary-search walk,
// "session" the same with per-session scratch (zero allocations per
// draw), "distinct" 16 draws without replacement.
func BenchmarkSampleUFA(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	dfa := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	const depth = 20
	b.Run("indexed", func(b *testing.B) {
		s, err := sample.NewUFASampler(dfa, depth)
		if err != nil {
			b.Fatal(err)
		}
		if s.TotalRange().Sign() == 0 {
			b.Skip("empty slice")
		}
		draw := rand.New(rand.NewSource(18))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Sample(draw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		s, err := sample.NewUFASampler(dfa, depth)
		if err != nil {
			b.Fatal(err)
		}
		if s.TotalRange().Sign() == 0 {
			b.Skip("empty slice")
		}
		d := s.NewDrawSession(rand.New(rand.NewSource(18)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.Sample(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("distinct", func(b *testing.B) {
		s, err := sample.NewUFASampler(dfa, depth)
		if err != nil {
			b.Fatal(err)
		}
		if s.TotalRange().Sign() == 0 {
			b.Skip("empty slice")
		}
		draw := rand.New(rand.NewSource(18))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SampleDistinctAt(depth, 16, draw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4_FPRASAccuracy: one full FPRAS build on the evaluation-shape
// workload (layered NFA), the operation whose error E4 tabulates. Pinned
// to Workers: 1 so the number is a serial baseline on any machine; E14 and
// BenchmarkE5_FPRASScalingParallel own the parallel measurements.
func BenchmarkE4_FPRASAccuracy(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	nfa := automata.RandomLayered(rng, automata.Binary(), 10, 4, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpras.New(nfa, 10, fpras.Params{K: 32, Seed: int64(i + 1), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_FPRASScaling: the larger point of the E5 sweep, built
// serially (Workers: 1) as the parallel engine's baseline.
func BenchmarkE5_FPRASScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	nfa := automata.RandomLayered(rng, automata.Binary(), 20, 6, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpras.New(nfa, 20, fpras.Params{K: 32, Seed: int64(i + 1), Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_FPRASScalingParallel: the same build fanned across all
// cores — the estimate is bitwise identical to the serial run; only the
// wall-clock changes (experiment E14 tabulates the sweep).
func BenchmarkE5_FPRASScalingParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	nfa := automata.RandomLayered(rng, automata.Binary(), 20, 6, 2)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpras.New(nfa, 20, fpras.Params{K: 32, Seed: int64(i + 1), Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_PLVUGBatch: batched Las Vegas sampling through SampleN —
// per-witness cost including retries, across all cores.
func BenchmarkE8_PLVUGBatch(b *testing.B) {
	nfa := automata.AmbiguityGap(8)
	est, err := fpras.New(nfa, 8, fpras.Params{K: 24, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.SampleN(8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_VsNaiveMC: the naive Monte-Carlo estimator on the gap family
// (same sample budget the E6 table uses) — fast but wrong; compare with
// BenchmarkE4/E5 shapes for the FPRAS.
func BenchmarkE6_VsNaiveMC(b *testing.B) {
	n := automata.AmbiguityGapWide(12, 4)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.MonteCarloPaths(n, 12, 500, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_PolyDelay: per-output cost of the flashlight enumerator on
// an ambiguous instance.
func BenchmarkE7_PolyDelay(b *testing.B) {
	nfa := automata.SubsetBlowup(10)
	e, err := enumerate.NewNFA(nfa, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := e.Next(); !ok {
			b.StopTimer()
			e, err = enumerate.NewNFA(nfa, 16)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkEnumDelayNFA: one full drain of the flashlight enumerator on
// the E7 workload, reporting the maximum inter-output gap (worst-case
// delay, the quantity Theorem 16 bounds) as max-delay-ns alongside the
// usual per-drain time and allocs. The steady-state loop reuses the word
// and bitset scratch, so allocs/op stays flat in the output count.
func BenchmarkEnumDelayNFA(b *testing.B) {
	nfa := automata.SubsetBlowup(10)
	b.ReportAllocs()
	var maxGap time.Duration
	outputs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := enumerate.NewNFA(nfa, 16)
		if err != nil {
			b.Fatal(err)
		}
		last := time.Now()
		for {
			if _, ok := e.Next(); !ok {
				break
			}
			now := time.Now()
			if gap := now.Sub(last); gap > maxGap {
				maxGap = gap
			}
			last = now
			outputs++
		}
	}
	b.ReportMetric(float64(maxGap.Nanoseconds()), "max-delay-ns")
	b.ReportMetric(float64(outputs)/float64(b.N), "words/op")
}

// BenchmarkEnumDelayUFA: the same drain-and-track-gap shape for the
// constant-delay enumerator (Algorithm 1) on the E1 workload.
func BenchmarkEnumDelayUFA(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dfa := automata.RandomDFA(rng, automata.Binary(), 64, 0.5)
	b.ReportAllocs()
	var maxGap time.Duration
	outputs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := enumerate.NewUFA(dfa, 18)
		if err != nil {
			b.Fatal(err)
		}
		last := time.Now()
		for {
			if _, ok := e.Next(); !ok {
				break
			}
			now := time.Now()
			if gap := now.Sub(last); gap > maxGap {
				maxGap = gap
			}
			last = now
			outputs++
		}
	}
	b.ReportMetric(float64(maxGap.Nanoseconds()), "max-delay-ns")
	b.ReportMetric(float64(outputs)/float64(b.N), "words/op")
}

// BenchmarkEnumDelayParallel: the same flashlight drain through the
// prefix-sharded stream with the ordered merge across all cores — the
// serving-layer configuration (identical output order, parallel
// producers).
func BenchmarkEnumDelayParallel(b *testing.B) {
	nfa := automata.SubsetBlowup(10)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	var maxGap time.Duration
	outputs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := enumerate.NewNFAStream(nfa, 16, enumerate.StreamOptions{Workers: workers, Ordered: true})
		if err != nil {
			b.Fatal(err)
		}
		last := time.Now()
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			now := time.Now()
			if gap := now.Sub(last); gap > maxGap {
				maxGap = gap
			}
			last = now
			outputs++
		}
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
	b.ReportMetric(float64(maxGap.Nanoseconds()), "max-delay-ns")
	b.ReportMetric(float64(outputs)/float64(b.N), "words/op")
}

// BenchmarkEnumDelaySkewed: the work-stealing scheduler against the static
// fan-out on the SkewedDensity family, whose mass concentrates in the
// lexicographically last prefix cell (≈78% of the 83k words): under static
// sharding one worker drains that cell alone while the rest idle, while
// work-stealing keeps re-splitting it. Both drains run the ordered merge
// with the same budget and must emit the serial sequence; the sub-bench
// ratio is the headline number of experiment E16 (on a single-core host
// the two converge — the scheduler can only win where there are cores).
func BenchmarkEnumDelaySkewed(b *testing.B) {
	nfa := automata.SkewedDensity(4)
	const length = 20
	for _, mode := range []struct {
		name  string
		steal int
	}{
		{"static", -1},
		{"steal", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var maxGap time.Duration
			outputs, peak, steals := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := enumerate.NewNFAStream(nfa, length, enumerate.StreamOptions{
					Workers: 4, Shards: 16, Ordered: true,
					MergeBudget: 512, StealThreshold: mode.steal,
				})
				if err != nil {
					b.Fatal(err)
				}
				last := time.Now()
				for {
					if _, ok := st.Next(); !ok {
						break
					}
					now := time.Now()
					if gap := now.Sub(last); gap > maxGap {
						maxGap = gap
					}
					last = now
					outputs++
				}
				if err := st.Err(); err != nil {
					b.Fatal(err)
				}
				stats := st.Stats()
				if stats.PeakBuffered > peak {
					peak = stats.PeakBuffered
				}
				steals += stats.Steals
				st.Close()
			}
			b.ReportMetric(float64(maxGap.Nanoseconds()), "max-delay-ns")
			b.ReportMetric(float64(outputs)/float64(b.N), "words/op")
			b.ReportMetric(float64(peak), "peak-buffered-words")
			b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
		})
	}
}

// BenchmarkE8_PLVUG: one Las Vegas sampling attempt (most reject, as the
// e⁻⁴ analysis predicts; the table reports the acceptance rate).
func BenchmarkE8_PLVUG(b *testing.B) {
	nfa := automata.AmbiguityGap(8)
	est, err := fpras.New(nfa, 8, fpras.Params{K: 24, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := est.Sample()
		if err != nil && err != fpras.ErrFail {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_Spanners: full spanner evaluation (build + count) on a
// 256-byte document.
func BenchmarkE9_Spanners(b *testing.B) {
	sigma := []byte("aber")
	eva := spanner.NewEVA([]string{"x"}, 6)
	for _, c := range sigma {
		eva.AddLetter(0, c, 0)
		eva.AddLetter(5, c, 5)
	}
	eva.AddSet(0, spanner.Open(0), 1)
	eva.AddLetter(1, 'e', 2)
	eva.AddLetter(2, 'r', 3)
	eva.AddLetter(3, 'r', 4)
	eva.AddSet(4, spanner.Close(0), 5)
	eva.SetFinal(5, true)
	rng := rand.New(rand.NewSource(9))
	letters := []byte("aber")
	doc := make([]byte, 256)
	for i := range doc {
		doc[i] = letters[rng.Intn(4)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := spanner.BuildInstance(eva, string(doc))
		if err != nil {
			b.Fatal(err)
		}
		ci, err := core.New(inst.N, inst.Length, core.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ci.Count(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10_RPQ: product construction plus exact path count for a
// 12-node graph.
func BenchmarkE10_RPQ(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	labels := automata.NewAlphabet("a", "b")
	g := graphdb.NewGraph(12, labels)
	for u := 0; u < 12; u++ {
		for d := 0; d < 2; d++ {
			g.AddEdge(u, rng.Intn(2), rng.Intn(12))
		}
	}
	q, err := graphdb.NewRPQ("(a|b)*a(a|b)*", labels)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := graphdb.BuildProduct(g, q, 0, 11)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exact.CountNFA(prod.N, 6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_BDD: OBDD compile + exact count (the Corollary 9 side).
func BenchmarkE11_BDD(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	d := bdd.RandomOBDD(rng, 16, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfa := d.NFA()
		_ = exact.CountUFA(nfa, d.NumVars)
	}
}

// BenchmarkE12_DNF: Karp–Luby vs the FPRAS pipeline on one random DNF
// (the FPRAS side; KL is timed inside the E12 table).
func BenchmarkE12_DNF(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	f := dnf.Random(rng, 14, 5, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fpras.New(f.NFA(), f.NumVars, fpras.Params{K: 32, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13_AblationRejection: one ablated (rejection-free) sampling
// attempt; compare with BenchmarkE8_PLVUG's corrected attempt cost.
func BenchmarkE13_AblationRejection(b *testing.B) {
	nfa := automata.AmbiguityGap(8)
	est, err := fpras.New(nfa, 8, fpras.Params{K: 24, Seed: 8, SkipRejection: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Sample(); err != nil && err != fpras.ErrFail {
			b.Fatal(err)
		}
	}
}
