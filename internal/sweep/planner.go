package sweep

import (
	"fmt"
	"runtime/debug"
	"sort"

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

// plan is a classified grid. Phase 1 simulates the timing-sensitive points
// and one capturing pivot per analytic group; phase 2 replays each group's
// log to its other members, or simulates them in full if the pivot failed.
type plan struct {
	phase1, phase2 []int
	group          []*opGroup      // group[i]: the group point i belongs to, if any
	cfg            []memsys.Config // cfg[i]: point i's configuration, for grouped points
}

// classify marks skipped points in results and plans the rest. PlanFull is
// the plan with no groups: every other point goes to phase 1 and Configure
// is left to each attempt. PlanOnePass calls Configure once per point to
// classify it. A Configure panic there becomes the same *PanicError a full
// attempt reports, charged as the point's first attempt, and the point
// takes the full path, which retries it within the remaining budget.
func (r Runner) classify(pts []Point, opts Options, results []Result) plan {
	p := plan{group: make([]*opGroup, len(pts))}
	onePass := r.Plan == PlanOnePass
	if onePass {
		p.cfg = make([]memsys.Config, len(pts))
	}
	byKey := map[upstreamKey][]int{}
	for i := range pts {
		if opts.Skip != nil && opts.Skip(pts[i]) {
			results[i].Skipped = true
			continue
		}
		if !onePass {
			p.phase1 = append(p.phase1, i)
			continue
		}
		cfg, err := safeConfigure(r.Configure, pts[i])
		if err != nil {
			results[i].Attempts = 1
			results[i].Err = fmt.Errorf("sweep: point %v: %w", pts[i], err)
			p.phase1 = append(p.phase1, i)
			continue
		}
		if analyticReason(cfg, r.CPU) != "" {
			p.phase1 = append(p.phase1, i)
			continue
		}
		p.cfg[i] = cfg
		k := upstreamKeyOf(cfg)
		byKey[k] = append(byKey[k], i)
	}
	var groups []*opGroup
	for _, members := range byKey {
		if len(members) < 2 {
			// A lone analytic point gains nothing from capture overhead.
			p.phase1 = append(p.phase1, members...)
			continue
		}
		groups = append(groups, &opGroup{pivot: members[0], replays: members[1:]})
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].pivot < groups[b].pivot })
	for _, g := range groups {
		p.phase1 = append(p.phase1, g.pivot)
		p.group[g.pivot] = g
		for _, i := range g.replays {
			p.phase2 = append(p.phase2, i)
			p.group[i] = g
		}
	}
	return p
}

// safeConfigure calls configure, converting a panic into the *PanicError
// an attempt would report for it.
func safeConfigure(configure func(Point) memsys.Config, pt Point) (cfg memsys.Config, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	return configure(pt), nil
}

// replay evaluates one analytic point by replaying its group's boundary
// log through the point's own downstream machinery.
func replay(hcfg memsys.Config, g *opGroup, ws *workerState, interrupt func() error) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	timeNS, err := h.ReplayDown(g.log, interrupt)
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
