// Package faultinject is the engine stack's deterministic fault-injection
// registry: named sites at the places where long-running work can be
// interrupted — counting-sweep layers, steal/merge transitions, delivery
// batches, sample chunks — and a seeded configuration that makes exactly
// one chosen site fail on exactly its N-th hit. The cancellation suite
// drives it to prove the graceful-degradation contract everywhere: a
// session that dies at ANY registered site still leaks no goroutines,
// emits at most one delivery batch past the fault, and mints a resume
// token whose replay is bitwise identical to an uninterrupted run.
//
// # Gating
//
// Injection is double-gated so production binaries and plain `go test
// ./...` runs never pay for it or trip over it:
//
//   - the NFA_FAULTS environment variable must be non-empty (tests use
//     t.Setenv; the CI fault job exports it), and
//   - a configuration must be installed with Configure.
//
// With no configuration installed, Check and Hit compile down to one
// atomic pointer load (plus the caller's own ctx check) — the registry is
// a no-op, never an allocation. Configure without the env gate returns
// ErrDisabled, so a stray spec cannot arm injection outside the suite.
//
// # Determinism
//
// A site fires on its configured hit ordinal, counted per Configure call:
// "countdag.build.layer:3" fails the third layer barrier crossed after the
// configuration was installed, every run, regardless of scheduling. Hits
// are counted with one atomic; concurrent sites (delivery batches of a
// parallel stream) therefore fire on a deterministic global ordinal even
// when which goroutine crosses it varies.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Site names one injection point. The constants below are the registry:
// every checkpoint the engine stack owns passes its site to Check/Hit.
type Site string

// The registered sites. Adding a checkpoint means adding its site here —
// the suite iterates the registry, so a new site is automatically driven.
const (
	// SiteCountdagLayer fires at a countdag.BuildCtx backward-sweep layer
	// barrier (every sweep attempt, at every limb width).
	SiteCountdagLayer Site = "countdag.build.layer"
	// SiteRangeLayer fires at a lengthrange.BuildCtx sweep layer barrier.
	SiteRangeLayer Site = "lengthrange.build.layer"
	// SiteFprasLayer fires at an fpras build layer barrier.
	SiteFprasLayer Site = "fpras.build.layer"
	// SiteDeliveryBatch fires when a parallel stream's consumer pops a
	// delivery batch (enumerate.Stream) or a serial ctx-wrapped session
	// crosses a DeliveryBatch boundary.
	SiteDeliveryBatch Site = "enumerate.delivery.batch"
	// SiteStealSplit fires when a work-stealing victim honors a steal
	// request (enumerate.Stream.reserve).
	SiteStealSplit Site = "enumerate.steal.split"
	// SiteMergeSpill fires when the ordered merge spills a cell to its
	// cursor (soft or hard spill).
	SiteMergeSpill Site = "enumerate.merge.spill"
	// SiteSampleChunk fires at a SampleMany chunk boundary (sample and
	// lengthrange batched draws) and between fpras SampleN draws.
	SiteSampleChunk Site = "sample.chunk"
	// SiteRangeAdvance fires when a range session advances to its next
	// per-length session (lengthrange session chain).
	SiteRangeAdvance Site = "lengthrange.session.advance"
	// SiteCacheFill fires at the compiled-index cache's fill boundary,
	// before a lookup can start or join a build (instcache.Cache).
	SiteCacheFill Site = "instcache.fill"
)

// Sites returns the full registry, in stable order, so suites can iterate
// every checkpoint.
func Sites() []Site {
	return []Site{
		SiteCountdagLayer, SiteRangeLayer, SiteFprasLayer,
		SiteDeliveryBatch, SiteStealSplit, SiteMergeSpill,
		SiteSampleChunk, SiteRangeAdvance, SiteCacheFill,
	}
}

// ErrInjected is the sentinel every fired site returns (wrapped with the
// site name); errors.Is(err, ErrInjected) identifies an injected fault.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrDisabled is returned by Configure when the NFA_FAULTS environment
// gate is off.
var ErrDisabled = errors.New("faultinject: disabled (set NFA_FAULTS=1)")

// EnvVar is the environment gate consulted by Configure.
const EnvVar = "NFA_FAULTS"

// arm is one site's firing rule: fail the fireAt-th hit.
type arm struct {
	fireAt uint64
	hits   atomic.Uint64
}

// config is one installed injection configuration.
type config struct {
	arms map[Site]*arm
}

// active is the installed configuration (nil = injection off, the fast
// path).
var active atomic.Pointer[config]

// Enabled reports whether a configuration is currently installed.
func Enabled() bool { return active.Load() != nil }

// Configure installs an injection configuration from a spec of
// comma-separated site:ordinal pairs — "countdag.build.layer:3" fails the
// third countdag layer barrier after this call. Ordinals are 1-based and
// must be positive; sites must be registered. The NFA_FAULTS environment
// variable must be set (tests use t.Setenv), or ErrDisabled is returned
// and nothing is installed. Call Reset to disarm.
func Configure(spec string) error {
	if os.Getenv(EnvVar) == "" {
		return ErrDisabled
	}
	known := map[Site]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	c := &config{arms: map[Site]*arm{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, ord, ok := strings.Cut(part, ":")
		if !ok {
			return fmt.Errorf("faultinject: malformed spec entry %q (want site:ordinal)", part)
		}
		if !known[Site(site)] {
			return fmt.Errorf("faultinject: unknown site %q", site)
		}
		n, err := strconv.ParseUint(ord, 10, 64)
		if err != nil || n == 0 {
			return fmt.Errorf("faultinject: bad ordinal %q for site %q (want a positive integer)", ord, site)
		}
		c.arms[Site(site)] = &arm{fireAt: n}
	}
	if len(c.arms) == 0 {
		return fmt.Errorf("faultinject: empty spec")
	}
	active.Store(c)
	return nil
}

// Reset disarms injection: every site becomes a no-op again.
func Reset() { active.Store(nil) }

// Hit records one pass through the site and returns the injected error
// when the site's arm fires on this hit. With no configuration installed
// it is one atomic load.
func Hit(site Site) error {
	c := active.Load()
	if c == nil {
		return nil
	}
	a, ok := c.arms[site]
	if !ok {
		return nil
	}
	if a.hits.Add(1) == a.fireAt {
		return fmt.Errorf("%w at %s (hit %d)", ErrInjected, site, a.fireAt)
	}
	return nil
}

// Check is the combined checkpoint every cancellable path uses: the
// context check (nil ctx = never cancelled) followed by the site hit.
// Cancellation wins over injection, so a cancelled session reports
// ctx.Err() even when its site was also armed.
func Check(ctx context.Context, site Site) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return Hit(site)
}
