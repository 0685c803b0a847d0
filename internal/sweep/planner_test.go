package sweep

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/synth"
	"mlcache/internal/trace"
)

func TestParsePlanMode(t *testing.T) {
	for in, want := range map[string]PlanMode{"": PlanFull, "full": PlanFull, "onepass": PlanOnePass} {
		got, err := ParsePlanMode(in)
		if err != nil || got != want {
			t.Errorf("ParsePlanMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePlanMode("magic"); err == nil {
		t.Error("bad mode accepted")
	}
	if PlanFull.String() != "full" || PlanOnePass.String() != "onepass" {
		t.Error("String round-trip broken")
	}
}

func TestAnalyticReason(t *testing.T) {
	ccfg := cpu.Config{CycleNS: 10}
	base := testConfigure(Point{L2SizeBytes: 65536, L2CycleNS: 30, L2Assoc: 1})
	if got := analyticReason(base, ccfg); got != "" {
		t.Fatalf("base machine classified timing-sensitive: %q", got)
	}
	cases := map[string]func(*memsys.Config, *cpu.Config){
		"flush":          func(_ *memsys.Config, c *cpu.Config) { c.FlushOnSwitch = true },
		"invariants":     func(h *memsys.Config, _ *cpu.Config) { h.CheckInvariants = true },
		"tlb":            func(h *memsys.Config, _ *cpu.Config) { h.TLB.Entries = 64 },
		"cycle mismatch": func(h *memsys.Config, _ *cpu.Config) { h.CPUCycleNS = 20; h.L1I.CycleNS = 20; h.L1D.CycleNS = 20 },
		"slow L1":        func(h *memsys.Config, _ *cpu.Config) { h.L1D.CycleNS = 20 },
		"L1 prefetch":    func(h *memsys.Config, _ *cpu.Config) { h.L1I.Prefetch = true },
		"L2 prefetch":    func(h *memsys.Config, _ *cpu.Config) { h.Down[0].Prefetch = true },
		"random L1":      func(h *memsys.Config, _ *cpu.Config) { h.L1D.Cache.Repl = cache.Random },
		"random L2":      func(h *memsys.Config, _ *cpu.Config) { h.Down[0].Cache.Repl = cache.Random },
	}
	for name, mutate := range cases {
		h, c := base, ccfg
		h.Down = append([]memsys.LevelConfig(nil), base.Down...)
		mutate(&h, &c)
		if analyticReason(h, c) == "" {
			t.Errorf("%s: classified analytic", name)
		}
	}
	// Downstream FIFO stays analytic: replay drives the real replacement
	// machinery, which is deterministic for everything but Random.
	h := base
	h.Down = append([]memsys.LevelConfig(nil), base.Down...)
	h.Down[0].Cache.Repl = cache.FIFO
	if got := analyticReason(h, ccfg); got != "" {
		t.Errorf("downstream FIFO classified timing-sensitive: %q", got)
	}
}

// renderTable renders results exactly as cmd/sweep does.
func renderTable(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTable(&buf, results, 10, false); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOnePassTableByteIdentical: the acceptance criterion — a multi-size,
// multi-cycle, multi-associativity grid renders byte-for-byte the same
// table under -plan=onepass and -plan=full.
func TestOnePassTableByteIdentical(t *testing.T) {
	pts := Grid{
		SizesBytes: SizesPow2(8, 64),
		CyclesNS:   []int64{10, 30, 50},
		Assocs:     []int{1, 2},
	}.Points()
	full := Runner{Configure: testConfigure, Trace: testTrace, CPU: cpu.Config{CycleNS: 10, WarmupRefs: 6000}}
	onepass := full
	onepass.Plan = PlanOnePass

	wantRes, err := full.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := onepass.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderTable(t, wantRes), renderTable(t, gotRes)
	if !bytes.Equal(want, got) {
		t.Fatalf("tables differ\nfull:\n%s\nonepass:\n%s", want, got)
	}
	// Beyond the table: execution time and downstream stats match exactly.
	for i := range wantRes {
		if gotRes[i].Run.TimeNS != wantRes[i].Run.TimeNS {
			t.Errorf("point %v: TimeNS %d != %d", pts[i], gotRes[i].Run.TimeNS, wantRes[i].Run.TimeNS)
		}
		if gotRes[i].Run.Mem.Down[0].Cache != wantRes[i].Run.Mem.Down[0].Cache {
			t.Errorf("point %v: L2 stats diverge", pts[i])
		}
	}
}

// TestOnePassTraceBudget: an analytic-only grid consumes a single trace
// pass (the pivot's), far under the ≤5 budget the issue allows.
func TestOnePassTraceBudget(t *testing.T) {
	arena, err := trace.Materialize(testTrace())
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{
		SizesBytes: SizesPow2(8, 64),
		CyclesNS:   []int64{10, 20, 30, 40, 50},
	}.Points() // 20 analytic points, one upstream group
	r := Runner{
		Configure: testConfigure,
		Arena:     arena,
		Plan:      PlanOnePass,
		CPU:       cpu.Config{CycleNS: 10, WarmupRefs: 6000},
	}
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if !res.OK() {
			t.Fatalf("point %v failed: %v", res.Point, res.Err)
		}
	}
	if got := arena.Cursors(); got > 5 {
		t.Errorf("one-pass plan opened %d trace cursors for analytic points, budget is 5", got)
	}
	if got := arena.Cursors(); got != 1 {
		t.Errorf("expected exactly 1 trace pass (single group), got %d", got)
	}
}

// TestOnePassMixedClassification: timing-sensitive points (Random L2)
// interleaved with analytic ones still produce a byte-identical table.
func TestOnePassMixedClassification(t *testing.T) {
	configure := func(pt Point) memsys.Config {
		cfg := testConfigure(pt)
		if pt.L2CycleNS == 30 {
			cfg.Down[0].Cache.Repl = cache.Random
		}
		return cfg
	}
	pts := Grid{SizesBytes: SizesPow2(8, 32), CyclesNS: []int64{10, 30, 50}}.Points()
	full := Runner{Configure: configure, Trace: testTrace, CPU: cpu.Config{CycleNS: 10, WarmupRefs: 5000}}
	onepass := full
	onepass.Plan = PlanOnePass
	wantRes, err := full.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := onepass.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want, got := renderTable(t, wantRes), renderTable(t, gotRes); !bytes.Equal(want, got) {
		t.Fatalf("tables differ\nfull:\n%s\nonepass:\n%s", want, got)
	}
}

// TestOnePassSkipAndOnResult: Skip marks points without running them, and
// OnResult fires exactly once per completed point, in both plan modes.
func TestOnePassSkipAndOnResult(t *testing.T) {
	pts := gridPoints(3, 2)
	var completed int32
	r := Runner{
		Configure: testConfigure,
		Trace:     testTrace,
		Plan:      PlanOnePass,
		CPU:       cpu.Config{CycleNS: 10},
	}
	skip := func(pt Point) bool { return pt.L2CycleNS == 20 }
	results, err := r.RunContext(context.Background(), pts, Options{
		Skip:     skip,
		OnResult: func(Result) { atomic.AddInt32(&completed, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran, skipped int
	for _, res := range results {
		switch {
		case res.Skipped:
			skipped++
			if !skip(res.Point) {
				t.Errorf("point %v skipped unexpectedly", res.Point)
			}
		case res.OK():
			ran++
		default:
			t.Errorf("point %v failed: %v", res.Point, res.Err)
		}
	}
	if skipped != 3 || ran != 3 {
		t.Errorf("ran=%d skipped=%d, want 3/3", ran, skipped)
	}
	if got := atomic.LoadInt32(&completed); got != 3 {
		t.Errorf("OnResult fired %d times, want 3", got)
	}
}

// TestOnePassCancellation: cancelling mid-grid returns the completed
// prefix with ctx errors on the rest, like the full plan.
func TestOnePassCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed int32
	r := Runner{
		Configure:   testConfigure,
		Trace:       testTrace,
		Plan:        PlanOnePass,
		CPU:         cpu.Config{CycleNS: 10},
		Parallelism: 1,
	}
	pts := gridPoints(4, 2)
	results, err := r.RunContext(ctx, pts, Options{
		OnResult: func(Result) {
			if atomic.AddInt32(&completed, 1) == 2 {
				cancel()
			}
		},
	})
	if !Canceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	for _, res := range results {
		if res.OK() || res.Skipped {
			continue
		}
		if !Canceled(res.Err) {
			t.Errorf("point %v: unexpected error %v", res.Point, res.Err)
		}
	}
}

// TestOnePassPivotFailureDemotesGroup: when the pivot's capture fails, the
// group's other members fall back to full simulation and still succeed,
// with the numbers the full plan gives.
func TestOnePassPivotFailureDemotesGroup(t *testing.T) {
	pts := gridPoints(2, 2)
	var calls int32
	configure := func(pt Point) memsys.Config {
		cfg := testConfigure(pt)
		// The pivot (first classified member) is classified with an L2
		// that memsys.New rejects, so its capture fails; every later call,
		// including the demoted members' full simulations, gets a valid
		// one.
		if pt == pts[0] && atomic.AddInt32(&calls, 1) == 1 {
			cfg.Down[0].Cache.SizeBytes = 3000
		}
		return cfg
	}
	r := Runner{
		Configure: configure,
		Trace:     testTrace,
		Plan:      PlanOnePass,
		CPU:       cpu.Config{CycleNS: 10},
	}
	results, err := r.RunContext(context.Background(), pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK() {
		t.Fatal("pivot succeeded: the injected capture failure never happened")
	}
	full := Runner{Configure: testConfigure, Trace: testTrace, CPU: r.CPU}
	want, err := full.RunPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results[1:] {
		if !res.OK() {
			t.Errorf("point %v: %v", res.Point, res.Err)
		} else if res.Run.TimeNS != want[i+1].Run.TimeNS {
			t.Errorf("point %v: time %d ns, full plan %d ns", res.Point, res.Run.TimeNS, want[i+1].Run.TimeNS)
		}
	}
}

// TestOnePassSpeedup: the acceptance benchmark — on a Fig 4-1-style
// size × cycle grid the one-pass plan is at least 3× faster end to end.
func TestOnePassSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock benchmark")
	}
	arena, err := trace.Materialize(synth.PaperStream(1, 150_000))
	if err != nil {
		t.Fatal(err)
	}
	pts := Grid{
		SizesBytes: SizesPow2(4, 4096),
		CyclesNS:   CyclesRange(1, 10, 10),
	}.Points() // the paper's Fig 4-1 grid: 11 sizes × 10 cycles
	mk := func(plan PlanMode) Runner {
		return Runner{
			Configure:   testConfigure,
			Arena:       arena,
			Plan:        plan,
			CPU:         cpu.Config{CycleNS: 10, WarmupRefs: 6000},
			Parallelism: 2,
		}
	}
	start := time.Now()
	if _, err := mk(PlanFull).RunContext(context.Background(), pts, Options{}); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(start)
	start = time.Now()
	if _, err := mk(PlanOnePass).RunContext(context.Background(), pts, Options{}); err != nil {
		t.Fatal(err)
	}
	onepassDur := time.Since(start)
	t.Logf("full %v, onepass %v (%.1fx)", fullDur, onepassDur, float64(fullDur)/float64(onepassDur))
	if onepassDur*3 > fullDur {
		t.Errorf("one-pass speedup below 3x: full %v, onepass %v", fullDur, onepassDur)
	}
}
