package sample

import (
	"math/rand"
	"testing"

	"repro/internal/automata"
	"repro/internal/limb"
)

// Cross-width sampling equivalence: the rank draw consumes the same byte
// stream at every limb width (limb's tests pin Draw against
// RandBigInto), so seeded sample sequences are bitwise identical
// whatever width the index has.

// TestSamplerTierDifferential: seeded Sample, DrawSession, and SampleMany
// streams from a one-limb sampler are bitwise identical to the sampler
// forced to three limbs over the same automaton.
func TestSamplerTierDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 8; trial++ {
		dfa := automata.RandomDFA(rng, automata.Binary(), 2+rng.Intn(6), 0.6)
		n := 2 + rng.Intn(7)
		prev := limb.ForceWidth(1)
		fast, err1 := NewUFASampler(dfa, n)
		limb.ForceWidth(3)
		forced, err2 := NewUFASampler(dfa, n)
		limb.ForceWidth(prev)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if fast.Count().Cmp(forced.Count()) != 0 {
			t.Fatalf("trial %d: counts differ", trial)
		}
		if fast.Count().Sign() == 0 {
			continue
		}
		if fast.Index().Width() != 1 || forced.Index().Width() != 3 {
			t.Fatalf("trial %d: widths %d and %d, want 1 and 3",
				trial, fast.Index().Width(), forced.Index().Width())
		}
		rngA := rand.New(rand.NewSource(3000 + int64(trial)))
		rngB := rand.New(rand.NewSource(3000 + int64(trial)))
		for d := 0; d < 60; d++ {
			wa, err1 := fast.Sample(rngA)
			wb, err2 := forced.Sample(rngB)
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d draw %d: %v / %v", trial, d, err1, err2)
			}
			if dfa.Alphabet().FormatWord(wa) != dfa.Alphabet().FormatWord(wb) {
				t.Fatalf("trial %d draw %d: sample streams diverge: %v vs %v", trial, d, wa, wb)
			}
		}
		sa := fast.NewDrawSession(rand.New(rand.NewSource(4000 + int64(trial))))
		sb := forced.NewDrawSession(rand.New(rand.NewSource(4000 + int64(trial))))
		for d := 0; d < 60; d++ {
			wa, err1 := sa.Sample()
			wb, err2 := sb.Sample()
			if err1 != nil || err2 != nil {
				t.Fatalf("trial %d session draw %d: %v / %v", trial, d, err1, err2)
			}
			if dfa.Alphabet().FormatWord(wa) != dfa.Alphabet().FormatWord(wb) {
				t.Fatalf("trial %d session draw %d: streams diverge", trial, d)
			}
		}
		ma, err1 := fast.SampleMany(int64(trial), 0xF00D, 32, 3)
		mb, err2 := forced.SampleMany(int64(trial), 0xF00D, 32, 3)
		if err1 != nil || err2 != nil || len(ma) != len(mb) {
			t.Fatalf("trial %d: SampleMany %v / %v", trial, err1, err2)
		}
		for d := range ma {
			if dfa.Alphabet().FormatWord(ma[d]) != dfa.Alphabet().FormatWord(mb[d]) {
				t.Fatalf("trial %d: SampleMany[%d] diverges", trial, d)
			}
		}
	}
}
