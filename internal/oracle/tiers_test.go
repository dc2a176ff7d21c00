package oracle

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/enumerate"
	"repro/internal/lengthrange"
	"repro/internal/limb"
)

// TestOracleGridBothTiers replays the differential grid at the natural
// limb width (one limb on this grid) and with the width forced to 3, and
// compares full transcripts — every unranked word, every resume token
// (including el1:r: rank-seek cursors), and every sampled word —
// bitwise. The oracle checks in the sibling tests pin correctness; this
// test pins width-independence.
func TestOracleGridBothTiers(t *testing.T) {
	for seed := int64(1); seed <= maxSeed; seed++ {
		natural := widthTranscript(t, seed, 1)
		forced := widthTranscript(t, seed, 3)
		if natural != forced {
			t.Fatalf("seed %d: transcripts differ:\n--- width 1 ---\n%s\n--- width 3 ---\n%s", seed, natural, forced)
		}
	}
}

// widthTranscript runs the seed's scenario with the limb width forced to
// at least k and serializes everything observable into one string.
func widthTranscript(t *testing.T, seed int64, k int) string {
	t.Helper()
	defer limb.ForceWidth(limb.ForceWidth(k))

	n := gridLength(seed)
	ufa := automata.Trim(gridUFA(seed))
	alpha := ufa.Alphabet()
	var sb strings.Builder

	idx, err := lengthrange.Build(ufa, n, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Width() != k {
		t.Fatalf("seed %d: width %d, want %d", seed, idx.Width(), k)
	}
	fmt.Fprintf(&sb, "total=%v\n", idx.TotalRange())

	// Every word by rank, with a rank round-trip.
	var r big.Int
	for i := int64(0); r.SetInt64(i).Cmp(idx.TotalRange()) < 0; i++ {
		w, err := idx.UnrankAt(n, &r)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := idx.RankAt(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "u%d=%s r=%v\n", i, alpha.FormatWord(w), rk)
	}

	// Enumeration with periodic decision and rank-seek cursor tokens, then
	// a resume from the last rank token.
	e, err := enumerate.NewUFA(ufa, n)
	if err != nil {
		t.Fatal(err)
	}
	var rankTok string
	for i := 0; ; i++ {
		w, ok := e.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&sb, "e=%s\n", alpha.FormatWord(w))
		if i%3 == 0 {
			tok, _ := e.Token()
			fmt.Fprintf(&sb, "tok=%s\n", tok)
			rc, err := e.RankCursor()
			if err != nil {
				t.Fatal(err)
			}
			rankTok = rc.Token()
			fmt.Fprintf(&sb, "rtok=%s\n", rankTok)
		}
	}
	e.Close()

	// The ordered parallel stream: exact steal-victim sizing runs at the
	// width under test, and the delivered order must not depend on it.
	se, err := enumerate.NewUFA(ufa, n)
	if err != nil {
		t.Fatal(err)
	}
	st := se.Stream(enumerate.StreamOptions{Workers: 3, Ordered: true})
	for _, w := range enumerate.Collect(alpha, st, 0) {
		fmt.Fprintf(&sb, "p=%s\n", w)
	}
	st.Close()

	if rankTok != "" {
		rs, err := enumerate.Resume(ufa, rankTok)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range enumerate.Collect(alpha, rs, 0) {
			fmt.Fprintf(&sb, "resumed=%s\n", w)
		}
		rs.Close()
	}

	// Seeded sample streams through the index.
	if idx.TotalRange().Sign() > 0 {
		rng := rand.New(rand.NewSource(seed * 11))
		for d := 0; d < 30; d++ {
			w, err := idx.Sample(rng)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "s=%s\n", alpha.FormatWord(w))
		}
		ds := idx.NewDrawSession(rand.New(rand.NewSource(seed * 13)))
		for d := 0; d < 30; d++ {
			w, err := ds.Sample()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "d=%s\n", alpha.FormatWord(w))
		}
	}

	// The range engine: totals, a global rank sweep, range samples, and a
	// chained session with periodic range tokens.
	lo := int(seed) % 3
	ri, err := lengthrange.Build(ufa, lo, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "range=%v\n", ri.TotalRange())
	for i := int64(0); r.SetInt64(i).Cmp(ri.TotalRange()) < 0 && i < 64; i++ {
		w, err := ri.UnrankRange(&r)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := ri.RankRange(w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "ru%d=%s rr=%v\n", i, alpha.FormatWord(w), rk)
	}
	if ri.TotalRange().Sign() > 0 {
		ws, err := ri.SampleMany(seed, 0xFACE, 24, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			fmt.Fprintf(&sb, "rs=%s\n", alpha.FormatWord(w))
		}
	}
	fp := enumerate.Fingerprint(ufa)
	sess, err := enumerate.NewRangeSession(lo, n, fp, func(length int, cursor string, seek *big.Int) (enumerate.Session, error) {
		if cursor != "" {
			return enumerate.Resume(ufa, cursor)
		}
		le, err := enumerate.NewUFA(ufa, length)
		if err != nil {
			return nil, err
		}
		if seek != nil {
			if err := le.SeekRank(seek); err != nil {
				return nil, err
			}
		}
		return le, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		w, ok := sess.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&sb, "rw=%s\n", alpha.FormatWord(w))
		if i%5 == 0 {
			if tok, ok := sess.Token(); ok {
				fmt.Fprintf(&sb, "rtoken=%s\n", tok)
			}
		}
	}
	sess.Close()
	return sb.String()
}

// TestExactGoldenForcedWidth: the pinned golden transcript holds unchanged
// with every index forced to three limbs — the widest case the golden
// cases reach on their own, applied to all of them.
func TestExactGoldenForcedWidth(t *testing.T) {
	defer limb.ForceWidth(limb.ForceWidth(3))
	TestExactGolden(t)
}
