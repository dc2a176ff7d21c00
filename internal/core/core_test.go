package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/exact"
	"repro/internal/stats"
)

func TestClassDetection(t *testing.T) {
	paper, length := automata.PaperExample()
	ul, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ul.Class() != ClassUL {
		t.Fatalf("paper example class = %v, want RelationUL", ul.Class())
	}
	nl, err := New(automata.AmbiguityGap(4), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Class() != ClassNL {
		t.Fatalf("gap family class = %v, want RelationNL", nl.Class())
	}
	if ClassUL.String() != "RelationUL" || ClassNL.String() != "RelationNL" {
		t.Fatal("class names wrong")
	}
}

func TestForceClass(t *testing.T) {
	paper, length := automata.PaperExample()
	nl := ClassNL
	in, err := New(paper, length, Options{ForceClass: &nl})
	if err != nil {
		t.Fatal(err)
	}
	if in.Class() != ClassNL {
		t.Fatal("forcing NL on a UFA must be allowed (it is sound)")
	}
	ul := ClassUL
	if _, err := New(automata.AmbiguityGap(4), 4, Options{ForceClass: &ul}); err == nil {
		t.Fatal("forcing UL on an ambiguous automaton must fail")
	}
}

func TestRejectsBadInput(t *testing.T) {
	eps := automata.New(automata.Binary(), 2)
	eps.AddEpsilon(0, 1)
	if _, err := New(eps, 2, Options{}); err == nil {
		t.Error("ε-automaton must be rejected")
	}
	ok := automata.Chain(automata.Binary(), automata.Word{0})
	if _, err := New(ok, -1, Options{}); err == nil {
		t.Error("negative length must be rejected")
	}
}

func TestULPipeline(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := in.CountExact(0)
	if err != nil || c.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("CountExact = %v, %v", c, err)
	}
	v, isExact, err := in.Count()
	if err != nil || !isExact {
		t.Fatalf("Count: %v exact=%v err=%v", v, isExact, err)
	}
	f, _ := v.Float64()
	if f != 4 {
		t.Fatalf("Count = %f", f)
	}
	ws, err := in.Witnesses(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 || ws[0] != "aaa" {
		t.Fatalf("witnesses = %v", ws)
	}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		w, err := in.Sample()
		if err != nil {
			t.Fatal(err)
		}
		counts[in.FormatWord(w)]++
	}
	if len(counts) != 4 {
		t.Fatalf("sample coverage: %v", counts)
	}
	vec := make([]int, 0, 4)
	for _, c := range counts {
		vec = append(vec, c)
	}
	if ok, stat, _ := stats.UniformityOK(vec); !ok {
		t.Fatalf("UL sampler biased: chi2=%f", stat)
	}
}

func TestNLPipelineBinary(t *testing.T) {
	n := automata.AmbiguityGap(8)
	in, err := New(n, 8, Options{K: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := in.Count()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Float64()
	if re := stats.RelErr(f, 256); re > 0.3 {
		t.Fatalf("FPRAS count %f vs 256 (rel err %f)", f, re)
	}
	ws, err := in.Witnesses(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 256 {
		t.Fatalf("enumerated %d witnesses, want 256", len(ws))
	}
	for i := 0; i < 30; i++ {
		w, err := in.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if !n.Accepts(w) {
			t.Fatalf("sampled non-witness %v", w)
		}
	}
}

func TestNLPipelineTernaryAlphabetBridging(t *testing.T) {
	// An ambiguous automaton over a 3-letter alphabet exercises the
	// BinaryEncode bridge inside Count and Sample.
	alpha := automata.NewAlphabet("a", "b", "c")
	rng := rand.New(rand.NewSource(9))
	var n *automata.NFA
	var in *Instance
	for {
		cand := automata.Trim(automata.Random(rng, alpha, 4, 0.3, 0.4))
		inst, err := New(cand, 5, Options{K: 64, Seed: 11})
		if err != nil {
			continue
		}
		c, err := inst.CountExact(0)
		if err != nil || c.Sign() == 0 {
			continue
		}
		if inst.Class() == ClassNL {
			n, in = cand, inst
			break
		}
	}
	want, err := exact.CountNFA(n, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantF, _ := new(big.Float).SetInt(want).Float64()
	v, _, err := in.Count()
	if err != nil {
		t.Fatal(err)
	}
	f, _ := v.Float64()
	if re := stats.RelErr(f, wantF); re > 0.35 {
		t.Fatalf("bridged FPRAS %f vs %f (rel err %f)", f, wantF, re)
	}
	for i := 0; i < 20; i++ {
		w, err := in.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != 5 || !n.Accepts(w) {
			t.Fatalf("bridged sample invalid: %v", w)
		}
	}
}

func TestEmptyWitnessSet(t *testing.T) {
	n := automata.Chain(automata.Binary(), automata.Word{0, 1})
	in, err := New(n, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Sample(); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	ws, err := in.Witnesses(0)
	if err != nil || len(ws) != 0 {
		t.Fatalf("witnesses = %v, %v", ws, err)
	}
	v, isExact, err := in.Count()
	if err != nil || !isExact || v.Sign() != 0 {
		t.Fatalf("count = %v exact=%v err=%v", v, isExact, err)
	}
}

func TestSampleMany(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := in.SampleMany(10)
	if err != nil || len(ws) != 10 {
		t.Fatalf("SampleMany: %d, %v", len(ws), err)
	}
	for _, w := range ws {
		if !paper.Accepts(w) {
			t.Fatalf("non-witness %v", w)
		}
	}
}

func TestCountExactSubsetBoundSurfaces(t *testing.T) {
	in, err := New(automata.SubsetBlowup(18), 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Class() != ClassNL {
		t.Fatal("SubsetBlowup should be NL")
	}
	if _, err := in.CountExact(256); err == nil {
		t.Fatal("exact count should blow past 256 subsets")
	}
}

func TestAccessors(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Length() != length {
		t.Fatal("Length accessor wrong")
	}
	if in.Automaton().NumStates() == 0 {
		t.Fatal("Automaton accessor wrong")
	}
}

func TestSampleManyParallelNL(t *testing.T) {
	// Ambiguous instance: the FPRAS batched sampler underneath. The batch
	// must be witness-only, length-correct, and identical across worker
	// counts for a fixed seed.
	in, err := New(automata.AmbiguityGap(8), 8, Options{K: 24, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if in.Class() != ClassNL {
		t.Fatal("AmbiguityGap should be NL")
	}
	var want []automata.Word
	for _, workers := range []int{1, 4} {
		in2, err := New(automata.AmbiguityGap(8), 8, Options{K: 24, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := in2.SampleManyParallel(16, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 16 {
			t.Fatalf("got %d samples", len(ws))
		}
		for i, w := range ws {
			if len(w) != 8 || !in2.Automaton().Accepts(w) {
				t.Fatalf("sample %d not a witness: %v", i, w)
			}
		}
		if want == nil {
			want = ws
			continue
		}
		for i := range ws {
			if in2.FormatWord(ws[i]) != in2.FormatWord(want[i]) {
				t.Fatalf("workers=%d: sample %d = %v, want %v", workers, i, ws[i], want[i])
			}
		}
	}
}

// TestSampleManyParallelNLCancelled: on RelationNL the batch honours ctx
// after the build as well. With the estimator already built, a cancelled
// ctx returns ctx.Err() instead of drawing the batch, and a live ctx
// returns the nil-ctx batch bitwise.
func TestSampleManyParallelNLCancelled(t *testing.T) {
	in, err := New(automata.AmbiguityGap(8), 8, Options{K: 24, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	want, err := in.SampleManyParallel(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if ws, err := in.SampleManyParallelCtx(ctx, 16, 2); !errors.Is(err, context.Canceled) || ws != nil {
		t.Fatalf("cancelled ctx: got (%d words, %v), want (nil, context.Canceled)", len(ws), err)
	}
	got, err := in.SampleManyParallelCtx(context.Background(), 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if in.FormatWord(got[i]) != in.FormatWord(want[i]) {
			t.Fatalf("sample %d = %v with a live ctx, want %v", i, got[i], want[i])
		}
	}
}

func TestSampleManyParallelNLEncoded(t *testing.T) {
	// Ternary ambiguous instance: exercises the binary-encoding bridge on
	// the parallel path (decode back to the source alphabet).
	tern := automata.NewAlphabet("a", "b", "c")
	n := automata.New(tern, 2)
	for a := 0; a < 3; a++ {
		n.AddTransition(0, a, 0)
		n.AddTransition(0, a, 1)
		n.AddTransition(1, a, 1)
	}
	n.SetFinal(1, true)
	in, err := New(n, 5, Options{K: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if in.Class() != ClassNL {
		t.Fatalf("class = %v, want NL", in.Class())
	}
	ws, err := in.SampleManyParallel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if len(w) != 5 || !n.Accepts(w) {
			t.Fatalf("decoded sample %d not a witness: %v", i, w)
		}
	}
}

func TestSampleManyParallelUL(t *testing.T) {
	paper, length := automata.PaperExample()
	in, err := New(paper, length, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := in.SampleManyParallel(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 64 {
		t.Fatalf("got %d samples", len(ws))
	}
	for i, w := range ws {
		if !paper.Accepts(w) {
			t.Fatalf("sample %d not a witness: %v", i, w)
		}
	}
	// Deterministic per seed regardless of workers.
	in2, err := New(paper, length, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := in2.SampleManyParallel(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if in.FormatWord(ws[i]) != in2.FormatWord(ws2[i]) {
			t.Fatalf("sample %d differs across worker counts", i)
		}
	}
}

func TestInstanceConcurrentUse(t *testing.T) {
	// Mixed concurrent Count/Sample/SampleManyParallel on one shared
	// instance must be race-free (meaningful under `go test -race`).
	in, err := New(automata.AmbiguityGap(7), 7, Options{K: 24, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		go func(g int) {
			switch g % 3 {
			case 0:
				_, _, err := in.Count()
				done <- err
			case 1:
				_, err := in.Sample()
				done <- err
			default:
				_, err := in.SampleManyParallel(4, 2)
				done <- err
			}
		}(g)
	}
	for g := 0; g < 12; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
