package main

import (
	"fmt"
	"hash/maphash"

	"repro/internal/core"
)

// checkStreams runs the checks that need references computed after the
// timed window: every enum transcript against the tenant's own
// enumeration, every sampled word for membership. Each failed check
// counts once.
func checkStreams(sp *spec, clients [][]*stream) (failed int, errs []string) {
	fail := func(err error) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, err.Error())
		}
	}
	for _, mine := range clients {
		for _, st := range mine {
			if st.cur.words > 0 {
				st.endPass(false)
			}
			if len(st.passes) > 0 {
				if err := checkTranscript(sp, st.ten, st.passes); err != nil {
					fail(err)
				}
			}
			for _, s := range st.samples {
				if err := checkMembers(s); err != nil {
					fail(err)
				}
			}
		}
	}
	return failed, errs
}

// checkTranscript compares a stream's passes with a fresh enumeration of
// the tenant: the words core.Instance.Witnesses returns, drawn from the
// same session so that long transcripts need not be held in memory. A
// pass the server reported finished must hold the whole slice.
func checkTranscript(sp *spec, t *tenant, passes []pass) error {
	inst, err := core.New(t.nfa, t.n, core.Options{})
	if err != nil {
		return err
	}
	sess, err := inst.Enumerate(core.CursorOptions{})
	if err != nil {
		return err
	}
	defer sess.Close()
	var need uint64
	for _, p := range passes {
		need = max(need, p.words)
	}
	// sums[k] is the digest of the first k reference words, kept only at
	// the pass lengths.
	at := make(map[uint64]uint64)
	for _, p := range passes {
		at[p.words] = 0
	}
	var h maphash.Hash
	h.SetSeed(sp.hash)
	var k uint64
	at[0] = h.Sum64()
	for k < need {
		w, ok := sess.Next()
		if !ok {
			break
		}
		h.WriteString(inst.FormatWord(w))
		h.WriteByte('\n')
		k++
		if _, want := at[k]; want {
			at[k] = h.Sum64()
		}
	}
	_, more := sess.Next()
	if err := sess.Err(); err != nil {
		return err
	}
	for i, p := range passes {
		switch {
		case p.words > k:
			return fmt.Errorf("tenant %d pass %d: %d words, the slice has %d", t.id, i, p.words, k)
		case p.sum != at[p.words]:
			return fmt.Errorf("tenant %d pass %d: transcript of %d words differs from the engine's enumeration", t.id, i, p.words)
		case p.done && (p.words < k || more):
			return fmt.Errorf("tenant %d pass %d: reported done after %d words of a longer slice", t.id, i, p.words)
		}
	}
	return nil
}

// checkMembers requires every sampled word to be a witness: accepted by
// the tenant automaton, with a length in the requested range.
func checkMembers(s sampled) error {
	alpha := s.ten.nfa.Alphabet()
	for _, str := range s.words {
		w, err := parseWord(alpha, str)
		if err != nil {
			return err
		}
		if len(w) < s.lo || len(w) > s.hi || !s.ten.nfa.Accepts(w) {
			return fmt.Errorf("tenant %d: sampled %q is not a witness of length [%d, %d]", s.ten.id, str, s.lo, s.hi)
		}
	}
	return nil
}
