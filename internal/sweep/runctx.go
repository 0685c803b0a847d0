package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mlcache/internal/cpu"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// Options tunes the fault-tolerant sweep engine.
type Options struct {
	// PointTimeout bounds one simulation attempt; 0 means no limit. A
	// point that exceeds it fails with context.DeadlineExceeded (wrapped
	// in its Result.Err) without disturbing the rest of the grid.
	PointTimeout time.Duration
	// Retries is the number of extra attempts for a failed point. Grid
	// cancellation is never retried; everything else (including panics,
	// which may be environmental) is, up to this budget.
	Retries int
	// Backoff is the wait before the first retry, doubling per attempt.
	Backoff time.Duration
	// Skip, when non-nil, is consulted before simulating a point; true
	// marks the point's Result as Skipped without running it. The resume
	// path uses this to avoid re-simulating journaled points.
	Skip func(Point) bool
	// OnResult, when non-nil, is called once per completed (non-skipped)
	// point as soon as it finishes, in completion order. Calls are
	// serialized; the checkpoint journal hangs off this hook.
	OnResult func(Result)
}

// PanicError is a panic inside one point's simulation, converted into an
// ordinary per-point error so one faulty configuration cannot take down the
// whole sweep.
type PanicError struct {
	Point Point
	Value any
	Stack []byte
}

// Error describes the panic; the captured stack is in Stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: point %v panicked: %v", e.Point, e.Value)
}

// RunContext simulates the given points on a worker pool and returns a
// result for every point, in input order, even when some fail. Per-point
// outcomes land in Result.Err rather than aborting the grid: a panic, an
// invalid configuration, or a timeout marks only its own point failed.
// Cancelling ctx (e.g. on SIGINT via signal.NotifyContext) stops workers at
// the next reference-stream check and returns the completed prefix — the
// partial results are valid and, with Options.OnResult journaling them,
// resumable. The returned error is nil unless ctx was cancelled.
//
// There is one engine for both plans: classify the points (see plan), run
// phase 1 — full simulations and capturing pivots — then phase 2 — the
// replays, and full simulations of any group whose pivot failed. PlanFull
// is the plan with no groups, so its phase 2 is empty.
func (r Runner) RunContext(ctx context.Context, pts []Point, opts Options) ([]Result, error) {
	if r.Configure == nil || (r.Trace == nil && r.Arena == nil) {
		return nil, fmt.Errorf("sweep: Runner needs Configure and Trace (or Arena)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(pts))
	for i, pt := range pts {
		results[i] = Result{Point: pt}
	}
	p := r.classify(pts, opts, results)
	shared := &gridTrace{runner: &r, ctx: ctx}

	var onResultMu sync.Mutex
	work := func(ws *workerState, i int) {
		res := &results[i]
		g := p.group[i]
		retryPoint(ctx, opts, ws, res, func(interrupt func() error) (cpu.Result, error) {
			switch {
			case g != nil && g.pivot == i:
				rec := memsys.NewDownRecorder()
				run, err := r.simulate(p.cfg[i], shared, ws, interrupt, rec)
				if err == nil {
					g.log, g.run = rec.Finish(run.TimeNS), run
				}
				return run, err
			case g != nil && g.log != nil:
				return replay(p.cfg[i], g, ws, interrupt)
			default:
				// A timing-sensitive point, or a member of a group whose
				// pivot failed to capture: Configure is called once per
				// attempt, and the trace runs end to end.
				return r.simulate(r.Configure(res.Point), shared, ws, interrupt, nil)
			}
		})
		if res.Err == nil && opts.OnResult != nil {
			onResultMu.Lock()
			opts.OnResult(*res)
			onResultMu.Unlock()
		}
	}
	r.runPhase(ctx, pts, p.phase1, work)
	r.runPhase(ctx, pts, p.phase2, work)

	if err := ctx.Err(); err != nil {
		// Points never attempted inherit the cancellation error so the
		// caller can tell "not run" from "ran and succeeded".
		for i := range results {
			if results[i].Attempts == 0 && !results[i].Skipped {
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// runPhase drains one phase's point indices through a worker pool of
// Runner.Parallelism workers (0 means GOMAXPROCS). Points are fed in
// geometry order, not input order: grouping by tag-array shape turns almost
// every worker transition into a timing-only ResetFor. Results stay in
// input order regardless, so the rendered table is byte-identical either
// way. Feeding stops when ctx is cancelled.
func (r Runner) runPhase(ctx context.Context, pts []Point, idxs []int, work func(*workerState, int)) {
	if len(idxs) == 0 {
		return
	}
	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, len(idxs))
	sub := make([]Point, len(idxs))
	for j, i := range idxs {
		sub[j] = pts[i]
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable hierarchy: grid neighbors that
			// share cache geometry are simulated by Reset instead of
			// reallocating tag arrays. With a Runner.Pool the hierarchy
			// outlives this run for the next job over the same geometry.
			ws := &workerState{pool: r.Pool}
			defer ws.retire()
			for i := range jobs {
				work(ws, i)
			}
		}()
	}
feed:
	for _, j := range GeometryOrder(sub) {
		select {
		case jobs <- idxs[j]:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
}

// gridTrace owns the grid's shared trace: the runner's stream is
// materialized into an immutable arena exactly once (by whichever worker
// gets there first), and every point reads it through an independent
// zero-copy cursor. Nothing is materialized until some attempt needs the
// trace, so a grid whose points are all skipped never reads it.
type gridTrace struct {
	runner *Runner
	ctx    context.Context
	once   sync.Once
	arena  *trace.Arena
	err    error
}

// source returns the reference source for one simulation attempt.
func (g *gridTrace) source() (trace.Stream, error) {
	g.once.Do(func() {
		if g.runner.Arena != nil {
			g.arena = g.runner.Arena
			return
		}
		// The materialization pass itself observes cancellation through
		// the watch wrapper; a cancelled decode fails all points with the
		// context's error rather than hanging the grid.
		g.arena, g.err = trace.Materialize(watch(g.ctx, g.runner.Trace()))
	})
	if g.err != nil {
		return nil, g.err
	}
	return g.arena.Cursor(), nil
}

// workerState is the per-worker reusable simulation state.
type workerState struct {
	h    *memsys.Hierarchy
	pool *memsys.Pool
}

// hierarchy returns a hierarchy for cfg, reusing the worker's previous one
// (via ResetFor) when the cache geometry allows it, then falling back to
// the shared pool (which may hold one from an earlier run), and finally to
// fresh construction. A hierarchy displaced by a geometry change is handed
// to the pool rather than dropped; without a pool it is released before
// its replacement is built, so a collection during that (possibly
// megabytes-large) allocation can reclaim it.
func (ws *workerState) hierarchy(cfg memsys.Config) (*memsys.Hierarchy, error) {
	if ws.h != nil && ws.h.ResetFor(cfg) {
		return ws.h, nil
	}
	if ws.pool != nil {
		if ws.h != nil {
			ws.pool.Put(ws.h)
			ws.h = nil
		}
		h, err := ws.pool.Get(cfg)
		if err != nil {
			return nil, err
		}
		ws.h = h
		return h, nil
	}
	ws.h = nil
	h, err := memsys.New(cfg)
	if err != nil {
		return nil, err
	}
	ws.h = h
	return h, nil
}

// retire returns the worker's hierarchy to the shared pool when the run
// ends. Without a pool it is simply garbage.
func (ws *workerState) retire() {
	if ws.pool != nil && ws.h != nil {
		ws.pool.Put(ws.h)
		ws.h = nil
	}
}

// retryPoint runs attempts of res.Point's simulation under the engine's
// retry/backoff policy, filling res in place. An attempt already charged
// to res (Attempts > 0 with Err set, as when the one-pass classification
// panicked) counts against the budget exactly like one made here.
func retryPoint(ctx context.Context, opts Options, ws *workerState, res *Result, body func(interrupt func() error) (cpu.Result, error)) {
	backoff := opts.Backoff
	for {
		if res.Attempts > 0 {
			// The grid being cancelled is not a per-point fault; don't
			// burn retries on it.
			if ctx.Err() != nil || res.Attempts > opts.Retries {
				return
			}
			if backoff > 0 {
				t := time.NewTimer(backoff)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
				backoff *= 2
			}
		}
		if ctx.Err() != nil {
			if res.Err == nil {
				res.Err = ctx.Err()
			}
			return
		}
		res.Attempts++
		run, err := attempt(ctx, opts.PointTimeout, ws, res.Point, body)
		if err == nil {
			res.Run, res.Err = run, nil
			return
		}
		res.Err = fmt.Errorf("sweep: point %v: %w", res.Point, err)
	}
}

// attempt makes one simulation attempt. body gets an interrupt that
// reports the grid's cancellation or the per-point timeout, and a panic in
// it becomes a *PanicError.
func attempt(ctx context.Context, timeout time.Duration, ws *workerState, pt Point, body func(interrupt func() error) (cpu.Result, error)) (run cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			// A panic may have left the cached hierarchy mid-update; drop
			// it so the retry (and later points) start from clean state.
			ws.h = nil
			err = &PanicError{Point: pt, Value: p, Stack: debug.Stack()}
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return body(ctx.Err)
}

// simulate runs the whole trace through a hierarchy for hcfg. With rec
// non-nil it also records the first-level boundary stream — the capture
// that a one-pass group's pivot makes.
func (r Runner) simulate(hcfg memsys.Config, shared *gridTrace, ws *workerState, interrupt func() error, rec *memsys.DownRecorder) (cpu.Result, error) {
	h, err := ws.hierarchy(hcfg)
	if err != nil {
		return cpu.Result{}, err
	}
	s, err := shared.source()
	if err != nil {
		return cpu.Result{}, err
	}
	cfg := r.CPU
	cfg.Interrupt = interrupt
	if rec != nil {
		h.SetTap(rec)
		defer h.SetTap(nil) // the hierarchy is reused for later points
		cfg.OnRecordingStart = rec.MarkRecordingStart
		if cfg.WarmupRefs == 0 {
			rec.MarkRecordingStart(0)
		}
	}
	return cpu.Run(h, s, cfg)
}

// watchInterval is how many references the materialization pass consumes
// between cancellation checks: rare enough to stay off the hot path,
// frequent enough that SIGINT or a timeout stops the decode within
// microseconds. Simulation itself observes cancellation through the CPU
// loop's per-batch Interrupt check instead.
const watchInterval = 1024

// watch wraps a stream so its consumer observes ctx: cancellation or a
// deadline surfaces as a stream error every watchInterval references,
// without poisoning any shared state.
func watch(ctx context.Context, s trace.Stream) trace.Stream {
	return &watchStream{ctx: ctx, s: s}
}

type watchStream struct {
	ctx  context.Context
	s    trace.Stream
	left int
}

func (w *watchStream) Next() (trace.Ref, error) {
	if w.left <= 0 {
		if err := w.ctx.Err(); err != nil {
			return trace.Ref{}, err
		}
		w.left = watchInterval
	}
	w.left--
	return w.s.Next()
}

// Canceled reports whether a per-point error is (or wraps) a context
// cancellation or deadline rather than a simulation fault.
func Canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
