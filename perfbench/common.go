package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"mlcache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// phase accumulates one measured phase (untraced or traced) of a run.
type phase struct {
	// passes holds each pass's wall seconds.
	passes []float64
}

// measure runs pass with tracing off for the phase budget and, in a traced
// run, again with tracing on. It records the end-to-end metrics every
// workload shares from the untraced phase, and the tracing overhead. Each
// call of pass reports the duration it measured; the budget counts only
// that time, so per-pass set-up and checks do not shorten the measurement.
// A garbage collection between passes starts each pass from the live heap,
// so one pass's garbage neither slows the next nor moves the memory
// high-water mark by when the collector happens to run.
func measure(b *bench, out *outcome, pass func(tr *tracer, ph *phase) (time.Duration, error)) (untraced, traced *phase, err error) {
	run := func(tr *tracer) (*phase, error) {
		ph := &phase{}
		var spent time.Duration
		for {
			runtime.GC()
			d, err := pass(tr, ph)
			if err != nil {
				return nil, err
			}
			spent += d
			if spent >= b.phaseBudget() {
				return ph, nil
			}
		}
	}
	// The memory high-water mark covers the measured passes: set-up's
	// transient garbage is returned to the system and the mark reset, so
	// when the collector happened to run during set-up does not show.
	out.layer["bench.setup_peak_rss_mb"] = peakRSSMB()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	if untraced, err = run(nil); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, s: %s\n", len(untraced.passes), spreadOf(untraced.passes))
	out.e2e["peak_rss_mb"] = peakRSSMB()
	out.e2e["pass_s"] = median(untraced.passes)
	if b.traced {
		if traced, err = run(b.spans); err != nil {
			return nil, nil, err
		}
		out.layer["bench.trace_overhead_pct"] = overheadPct(untraced.passes, traced.passes)
	}
	return untraced, traced, nil
}

// setupSeconds runs build at least setupRepeats times, and until the
// builds have taken setupMinTime, and records the median as setup_s. Before each build, drop releases the previous build's
// environment and a collection frees it, so no build runs beside another's
// leftovers; the caller keeps the last.
func setupSeconds(out *outcome, drop func(), build func() error) error {
	var secs []float64
	var total time.Duration
	for i := 0; i < setupRepeats || total < setupMinTime; i++ {
		drop()
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return err
		}
		d := time.Since(start)
		total += d
		secs = append(secs, d.Seconds())
	}
	out.e2e["setup_s"] = median(secs)
	return nil
}

// genTrace generates n references of the calibrated synthetic workload for
// seed and materializes them into an arena, the two set-up steps every
// workload shares, each under its own span.
func genTrace(tr *tracer, parent *openSpan, seed, n int64) (*trace.Arena, error) {
	sp := tr.start("synth.generate", parent)
	refs := make(trace.Trace, 0, n)
	src := mlcache.SyntheticWorkload(seed, n)
	for {
		r, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			sp.end()
			return nil, fmt.Errorf("generating trace: %w", err)
		}
		refs = append(refs, r)
	}
	sp.set("refs", int64(len(refs)))
	sp.end()
	sp = tr.start("trace.materialize", parent)
	arena, err := mlcache.Materialize(refs.Stream())
	sp.end()
	if err != nil {
		return nil, err
	}
	return arena, nil
}

// traceLayers reports the set-up layers' metrics from the spans genTrace
// recorded.
func traceLayers(tr *tracer, out *outcome) {
	out.layer["synth.refs_per_s"] = ratio(float64(tr.attr("synth.generate", "refs")), tr.seconds("synth.generate"))
	out.layer["trace.materialize_s"] = median(secondsOf(tr.millis("trace.materialize")))
}

func secondsOf(ms []float64) []float64 {
	out := make([]float64, len(ms))
	for i, v := range ms {
		out[i] = v / 1000
	}
	return out
}

// hierarchyBuilds times memsys.New for each configuration, reps times
// over, and reports the median as memsys.new_ms. It runs after the traced
// phase so the extra constructions do not count as tracing overhead.
func hierarchyBuilds(tr *tracer, out *outcome, cfgs []memsys.Config, reps int) error {
	for r := 0; r < reps; r++ {
		for _, cfg := range cfgs {
			sp := tr.start("memsys.new", nil)
			_, err := memsys.New(cfg)
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	out.layer["memsys.new_ms"] = median(tr.millis("memsys.new"))
	return nil
}

// invariantWindow is how many references the per-access invariant
// re-runs cover. Config.CheckInvariants sweeps every cache after every
// access, about 80 µs per reference on a 512 KB L2, so a re-run over a
// whole trace would take hours; a seed-chosen window of the same trace
// keeps that check to seconds. sweptRun covers the whole trace.
const invariantWindow = 2048

// checkInvariants simulates a seed-chosen window of arena under cfg twice,
// with invariant checking on and off. The two results must be identical
// and the checked run must report no violation.
func checkInvariants(out *outcome, rng *rand.Rand, label string, cfg mlcache.Config, arena *trace.Arena) {
	refs := arena.Refs()
	n := min(invariantWindow, len(refs))
	off := rng.Intn(len(refs) - n + 1)
	window := trace.NewArena(refs[off : off+n])
	cfg.CheckInvariants = false
	plain, err := mlcache.Simulate(cfg, window.Cursor(), int64(n/5))
	out.attempted++
	if err != nil {
		out.mismatch("%s: window run at offset %d: %v", label, off, err)
		return
	}
	cfg.CheckInvariants = true
	checked, err := mlcache.Simulate(cfg, window.Cursor(), int64(n/5))
	switch {
	case err != nil:
		out.mismatch("%s: invariant check at offset %d: %v", label, off, err)
	case !reflect.DeepEqual(plain, checked):
		out.mismatch("%s: result with invariant checking differs at offset %d", label, off)
	}
}

// sweptRun simulates cfg over the whole arena the way mlcache.Simulate
// does (memsys.New, then cpu.Run), with per-access checking off. Instead
// it sweeps the hierarchy's invariants (every cache's structure, every
// write buffer's occupancy) each time the issue loop reads a batch of
// references, and once more at the end. A sweep costs O(cache lines), as
// one per-access check does, but it runs once per batch, so the checks
// reach the full, evicting, write-buffer-bound state of a measured pass.
func sweptRun(cfg mlcache.Config, arena *trace.Arena, warmup int64) (mlcache.Result, error) {
	cfg.CheckInvariants = false
	h, err := memsys.New(cfg)
	if err != nil {
		return mlcache.Result{}, err
	}
	// A violation latches in the hierarchy, and the issue loop stops at
	// the next slot with it. The sweep does not know the simulated time,
	// so the error reads t=0.
	sweep := func() error { return h.CheckInvariants(0) }
	res, err := cpu.Run(h, arena.Cursor(), cpu.Config{CycleNS: cfg.CPUCycleNS, WarmupRefs: warmup, Interrupt: sweep})
	if err != nil {
		return res, err
	}
	if err := h.CheckInvariants(res.TimeNS); err != nil {
		return res, fmt.Errorf("final sweep: %w", err)
	}
	return res, nil
}
