package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
)

// The one-pass planner (-plan=onepass) splits a grid into *analytic* points
// — whose first-level boundary stream is a pure function of the trace, so
// they can be reproduced exactly by replaying a captured boundary log
// through their own downstream machinery — and *timing-sensitive* points
// that need a full end-to-end simulation. Analytic points sharing a first
// level form a group: one member (the pivot) simulates the trace once with
// a memsys.DownRecorder attached, and every other member replays the log,
// touching one event per first-level miss instead of one access per
// reference and never re-reading the trace. Results are bit-identical to
// full simulation (see internal/memsys/onepass.go); only the diagnostic
// PerPID and StallHist fields, which no table reads, are left empty on
// replayed points. See DESIGN.md §13.

// PlanMode selects how a Runner evaluates a grid.
type PlanMode int

const (
	// PlanFull simulates every point end to end (the default).
	PlanFull PlanMode = iota
	// PlanOnePass captures the first-level boundary once per group of
	// analytic points and replays it everywhere else.
	PlanOnePass
)

// ParsePlanMode parses a -plan flag value. The empty string means PlanFull.
func ParsePlanMode(s string) (PlanMode, error) {
	switch s {
	case "", "full":
		return PlanFull, nil
	case "onepass":
		return PlanOnePass, nil
	}
	return PlanFull, fmt.Errorf("sweep: unknown plan mode %q (want full or onepass)", s)
}

// String renders the mode as its flag value.
func (m PlanMode) String() string {
	if m == PlanOnePass {
		return "onepass"
	}
	return "full"
}

// upstreamKey fingerprints everything that determines the first-level
// boundary stream: the first-level configuration and the CPU rate. Points
// with equal keys see identical boundary event sequences and may share one
// capture.
type upstreamKey struct {
	split        bool
	l1i, l1d, l1 memsys.LevelConfig
	cpuCycleNS   int64
}

func upstreamKeyOf(cfg memsys.Config) upstreamKey {
	if cfg.SplitL1 {
		return upstreamKey{split: true, l1i: cfg.L1I, l1d: cfg.L1D, cpuCycleNS: cfg.CPUCycleNS}
	}
	return upstreamKey{l1: cfg.L1, cpuCycleNS: cfg.CPUCycleNS}
}

// analyticReason classifies one point. An empty string means the point is
// analytic — its boundary stream is trace-determined and capture/replay is
// exact. A non-empty string names the first timing interaction that forces
// a full simulation.
func analyticReason(hcfg memsys.Config, ccfg cpu.Config) string {
	if ccfg.FlushOnSwitch {
		return "first-level flush on context switch"
	}
	if hcfg.CheckInvariants {
		return "invariant checking"
	}
	if hcfg.TLB.Entries > 0 {
		return "TLB translation"
	}
	if hcfg.CPUCycleNS != ccfg.CycleNS {
		return "CPU cycle mismatch"
	}
	firsts := []memsys.LevelConfig{hcfg.L1}
	if hcfg.SplitL1 {
		firsts = []memsys.LevelConfig{hcfg.L1I, hcfg.L1D}
	}
	for _, lc := range firsts {
		if lc.CycleNS != hcfg.CPUCycleNS {
			return "first level slower than CPU"
		}
		if lc.Prefetch {
			return "first-level prefetch"
		}
		if lc.Cache.Repl == cache.Random {
			return "random replacement"
		}
	}
	for _, lc := range hcfg.Down {
		if lc.Prefetch {
			return "downstream prefetch"
		}
		if lc.Cache.Repl == cache.Random {
			return "random replacement"
		}
	}
	return ""
}

// opGroup is one set of analytic points sharing a first level.
type opGroup struct {
	pivot   int   // index into pts/results
	replays []int // remaining members, replayed from the pivot's log
	log     *memsys.DownLog
	run     cpu.Result // the pivot's full result
}

// runOnePass is RunContext's PlanOnePass engine: phase 1 runs the
// timing-sensitive points and one capturing pivot per analytic group,
// phase 2 replays the boundary logs (and falls back to full simulation for
// any group whose pivot failed). Per-point semantics — Skip, OnResult,
// retries, timeouts, cancellation — match the full engine.
func (r Runner) runOnePass(ctx context.Context, pts []Point, opts Options) ([]Result, error) {
	par := opts.Parallelism
	if par <= 0 {
		par = r.Parallelism
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(pts) {
		par = len(pts)
	}
	if par < 1 {
		par = 1
	}

	results := make([]Result, len(pts))
	for i, pt := range pts {
		results[i] = Result{Point: pt}
	}
	shared := &gridTrace{runner: &r, ctx: ctx}

	// Classification. Configure may panic for a bad point: the panic
	// becomes the same *PanicError the full engine reports, charged as the
	// point's first attempt, and the point takes the full path, which
	// retries it within the remaining budget.
	cfgs := make([]memsys.Config, len(pts))
	var fullIdx []int
	byKey := map[upstreamKey][]int{}
	for i := range pts {
		if opts.Skip != nil && opts.Skip(pts[i]) {
			results[i].Skipped = true
			continue
		}
		cfg, err := safeConfigure(r.Configure, pts[i])
		if err != nil {
			results[i].Attempts = 1
			results[i].Err = fmt.Errorf("sweep: point %v: %w", pts[i], err)
			fullIdx = append(fullIdx, i)
			continue
		}
		cfgs[i] = cfg
		if analyticReason(cfg, r.CPU) != "" {
			fullIdx = append(fullIdx, i)
			continue
		}
		k := upstreamKeyOf(cfg)
		byKey[k] = append(byKey[k], i)
	}
	var groups []*opGroup
	for _, members := range byKey {
		if len(members) < 2 {
			// A lone analytic point gains nothing from capture overhead.
			fullIdx = append(fullIdx, members...)
			continue
		}
		groups = append(groups, &opGroup{pivot: members[0], replays: members[1:]})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].pivot < groups[b].pivot })
	groupOf := map[int]*opGroup{}
	for _, g := range groups {
		groupOf[g.pivot] = g
	}

	var onResultMu sync.Mutex
	report := func(res *Result) {
		if res.Err == nil && opts.OnResult != nil {
			onResultMu.Lock()
			opts.OnResult(*res)
			onResultMu.Unlock()
		}
	}

	// Phase 1: timing-sensitive points plus one capturing pivot per group.
	phase1 := append(append([]int{}, fullIdx...), pivots(groups)...)
	r.runPhase(ctx, par, orderByGeometry(pts, phase1), func(ws *workerState, i int) {
		res := &results[i]
		if g := groupOf[i]; g != nil {
			retryPoint(ctx, opts, res, func() (cpu.Result, error) {
				run, log, err := r.runOnceCapture(ctx, opts.PointTimeout, res.Point, cfgs[i], shared, ws)
				if err == nil {
					g.log, g.run = log, run
				}
				return run, err
			})
		} else {
			r.runPoint(ctx, opts, shared, ws, res)
		}
		report(res)
	})

	// Phase 2: replays, plus full simulation for members of any group whose
	// pivot failed (its capture never completed).
	var phase2 []int
	demoted := map[int]bool{}
	for _, g := range groups {
		for _, i := range g.replays {
			phase2 = append(phase2, i)
			if g.log == nil {
				demoted[i] = true
			} else {
				groupOf[i] = g
			}
		}
	}
	r.runPhase(ctx, par, orderByGeometry(pts, phase2), func(ws *workerState, i int) {
		res := &results[i]
		if g := groupOf[i]; g != nil && !demoted[i] {
			retryPoint(ctx, opts, res, func() (cpu.Result, error) {
				return r.runOnceReplay(ctx, opts.PointTimeout, res.Point, cfgs[i], g, ws)
			})
		} else {
			r.runPoint(ctx, opts, shared, ws, res)
		}
		report(res)
	})

	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Attempts == 0 && !results[i].Skipped {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

func pivots(groups []*opGroup) []int {
	out := make([]int, len(groups))
	for j, g := range groups {
		out[j] = g.pivot
	}
	return out
}

// safeConfigure calls configure, converting a panic into the *PanicError
// runOnce would report for it.
func safeConfigure(configure func(Point) memsys.Config, pt Point) (cfg memsys.Config, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	return configure(pt), nil
}

// orderByGeometry returns idxs reordered so points sharing an L2 tag-array
// shape are adjacent, preserving the full engine's ResetFor reuse.
func orderByGeometry(pts []Point, idxs []int) []int {
	sub := make([]Point, len(idxs))
	for j, i := range idxs {
		sub[j] = pts[i]
	}
	out := make([]int, len(idxs))
	for j, p := range GeometryOrder(sub) {
		out[j] = idxs[p]
	}
	return out
}

// runPhase drains one phase's indices through a worker pool. Each worker
// owns reusable hierarchy state exactly like the full engine's workers.
func (r Runner) runPhase(ctx context.Context, par int, order []int, work func(*workerState, int)) {
	if len(order) == 0 {
		return
	}
	if par > len(order) {
		par = len(order)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := &workerState{pool: r.Pool}
			defer ws.retire()
			for i := range jobs {
				work(ws, i)
			}
		}()
	}
feed:
	for _, i := range order {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// runOnceCapture is runOnce with a boundary recorder attached: a normal
// full simulation of the pivot whose byproduct is the group's DownLog.
func (r Runner) runOnceCapture(ctx context.Context, timeout time.Duration, pt Point, hcfg memsys.Config, shared *gridTrace, ws *workerState) (run cpu.Result, log *memsys.DownLog, err error) {
	defer func() {
		if p := recover(); p != nil {
			ws.h = nil
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	pctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	s, err := shared.source()
	if err != nil {
		return cpu.Result{}, nil, err
	}
	rec := memsys.NewDownRecorder()
	h.SetTap(rec)
	defer h.SetTap(nil) // the hierarchy is reused for later points
	cfg := r.CPU
	cfg.Interrupt = pctx.Err
	cfg.OnRecordingStart = rec.MarkRecordingStart
	if cfg.WarmupRefs == 0 {
		rec.MarkRecordingStart(0)
	}
	run, err = cpu.Run(h, s, cfg)
	if err != nil {
		return run, nil, err
	}
	return run, rec.Finish(run.TimeNS), nil
}

// runOnceReplay evaluates one analytic point by replaying its group's
// boundary log through the point's own downstream machinery.
func (r Runner) runOnceReplay(ctx context.Context, timeout time.Duration, pt Point, hcfg memsys.Config, g *opGroup, ws *workerState) (run cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			ws.h = nil
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	pctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	timeNS, err := h.ReplayDown(g.log, pctx.Err)
	if err != nil {
		return cpu.Result{}, err
	}
	return synthesizeReplay(g.run, h, timeNS, hcfg.CPUCycleNS), nil
}

// synthesizeReplay reconstructs a cpu.Result for a replayed point: the
// trace-determined counters come from the pivot (they are identical for
// every group member), the downstream statistics and execution time from
// the replay. PerPID and StallHist — per-slot diagnostics no table reads —
// are left empty; DESIGN.md §13 records the limitation.
func synthesizeReplay(pivot cpu.Result, h *memsys.Hierarchy, timeNS, cycleNS int64) cpu.Result {
	res := cpu.Result{
		TimeNS:       timeNS,
		Cycles:       timeNS / cycleNS,
		IdealNS:      pivot.IdealNS,
		Instructions: pivot.Instructions,
		Loads:        pivot.Loads,
		Stores:       pivot.Stores,
		CPUReads:     pivot.CPUReads,
		Switches:     pivot.Switches,
	}
	if res.IdealNS > 0 {
		res.RelTime = float64(res.TimeNS) / float64(res.IdealNS)
	}
	if res.Instructions > 0 {
		res.CPI = float64(res.Cycles) / float64(res.Instructions)
	}
	res.Mem = h.Stats()
	clone := func(ls *memsys.LevelStats) *memsys.LevelStats {
		if ls == nil {
			return nil
		}
		c := *ls
		return &c
	}
	// First-level state was never touched by the replay; it is
	// trace-determined and therefore the pivot's.
	res.Mem.L1I = clone(pivot.Mem.L1I)
	res.Mem.L1D = clone(pivot.Mem.L1D)
	res.Mem.L1 = clone(pivot.Mem.L1)
	return res
}
