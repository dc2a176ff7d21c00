package bench

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/countdag"
	"repro/internal/instcache"
	"repro/internal/unroll"
)

// E20InstanceCache measures the compiled-index cache on a fleet of
// isomorphic-but-relabelled automata: the first compile of a 64-state
// depth-20 random DFA pays the full unroll + counting sweep (cold), and
// every relabelled copy afterwards resolves through the structural
// pre-key to the same cached index (warm). The experiment reports the
// cold/warm latency ratio, checks that the warm
// lookup returns the identical index object, and replays a full
// observable transcript (count, ranked access, seeded sample stream) on
// every fleet member against an uncached reference instance — cache hits
// must be bitwise indistinguishable from fresh builds.
func E20InstanceCache(quick bool) *Table {
	t := &Table{
		ID:     "E20",
		Title:  "Compiled-index cache: cold vs warm compile across an isomorphic-relabelled fleet",
		Header: []string{"phase", "time", "vs cold", "check"},
	}
	states, depth, fleet := 64, 20, 8
	if quick {
		states, depth, fleet = 32, 16, 4
	}
	rng := rand.New(rand.NewSource(17))
	base := automata.RandomDFA(rng, automata.Binary(), states, 0.5)
	members := make([]*automata.NFA, fleet)
	members[0] = base
	for i := 1; i < fleet; i++ {
		members[i] = automata.Relabel(base, rng.Perm(base.NumStates()))
	}
	est := admission.EstimateIndexBytes(base.NumStates(), base.NumTransitions(), depth)

	cache := instcache.New(instcache.DefaultBudget)
	buildUFA := func(n *automata.NFA) func(context.Context) (*countdag.Index, error) {
		return func(ctx context.Context) (*countdag.Index, error) {
			dag, err := unroll.Build(n, depth, unroll.Options{PruneBackward: true})
			if err != nil {
				return nil, err
			}
			return countdag.BuildCtx(ctx, dag, 1)
		}
	}
	measure := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	// transcript replays every observable an instance exposes on the
	// shared index: exact count, the low ranks of the enumeration order,
	// and a seeded sample stream.
	transcript := func(in *core.Instance) string {
		var sb strings.Builder
		v, exact, err := in.Count()
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&sb, "count=%s exact=%v class=%s\n", v.Text('f', 0), exact, in.Class())
		for r := int64(0); r < 5; r++ {
			w, err := in.Unrank(big.NewInt(r))
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&sb, "u%d=%s\n", r, in.FormatWord(w))
		}
		for i := 0; i < 8; i++ {
			w, err := in.Sample()
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&sb, "s=%s\n", in.FormatWord(w))
		}
		return sb.String()
	}

	// Cold: first compile of the family, paid once.
	var cold *countdag.Index
	coldDur := measure(func() {
		key := instcache.KeyFor(members[0])
		var hit bool
		var err error
		cold, hit, err = cache.UFAIndex(nil, key, depth, est, buildUFA(key.Norm()))
		if err != nil {
			panic(err)
		}
		if hit {
			panic("E20: first compile reported a cache hit")
		}
	})
	t.AddRow("cold compile", us(coldDur), "1.00x", "built+cached")

	// Warm: every relabelled copy, key computation included; several
	// rounds over the fleet amortize timer and allocator noise.
	const rounds = 3
	check := "same index object"
	warmDur := measure(func() {
		for r := 0; r < rounds; r++ {
			for _, m := range members[1:] {
				key := instcache.KeyFor(m)
				idx, hit, err := cache.UFAIndex(nil, key, depth, est, buildUFA(key.Norm()))
				if err != nil {
					panic(err)
				}
				if !hit {
					check = "REBUILT ON RELABELLING!"
				}
				if idx != cold {
					check = "DISTINCT INDEX OBJECTS!"
				}
			}
		}
	})
	warmAvg := warmDur / time.Duration(rounds*(fleet-1))
	ratio := float64(coldDur) / float64(warmAvg)
	if check == "same index object" && !quick && ratio < 10 {
		check = "WARM < 10x COLD!"
	}
	t.AddRow(fmt.Sprintf("warm hit (avg of %d)", fleet-1), us(warmAvg),
		fmt.Sprintf("%.1fx faster", ratio), check)

	// Transcript equality: fleet instances on the shared cache vs an
	// uncached reference, every observable bitwise compared.
	ref, err := core.New(members[0], depth, core.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	want := transcript(ref)
	check = "transcripts bitwise ="
	for _, m := range members {
		in, err := core.New(m, depth, core.Options{Seed: 7, Cache: cache})
		if err != nil {
			panic(err)
		}
		if transcript(in) != want {
			check = "TRANSCRIPTS DIVERGE!"
		}
	}
	t.AddRow(fmt.Sprintf("%d fleet transcripts", fleet), "-", "-", check)

	s := cache.Stats()
	t.Notes = append(t.Notes,
		fmt.Sprintf("m=%d states depth=%d, fleet of %d isomorphic relabellings; warm lookup = Normalize + structural pre-key + exact Equal verification", states, depth, fleet),
		fmt.Sprintf("cache: %s", s.String()),
		fmt.Sprintf("acceptance: warm >= 10x cold on the full-size family (measured %.1fx); one build; transcripts bitwise identical", ratio))
	return t
}
