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
	// Parallelism bounds concurrent simulations; <= 0 means the Runner's
	// Parallelism, falling back to GOMAXPROCS.
	Parallelism int
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
func (r Runner) RunContext(ctx context.Context, pts []Point, opts Options) ([]Result, error) {
	if r.Configure == nil || (r.Trace == nil && r.Arena == nil) {
		return nil, fmt.Errorf("sweep: Runner needs Configure and Trace (or Arena)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if r.Plan == PlanOnePass && !r.StreamPerPoint {
		return r.runOnePass(ctx, pts, opts)
	}
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

	jobs := make(chan int)
	shared := &gridTrace{runner: &r, ctx: ctx}
	var onResultMu sync.Mutex
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
				res := &results[i]
				if opts.Skip != nil && opts.Skip(res.Point) {
					res.Skipped = true
					continue
				}
				r.runPoint(ctx, opts, shared, ws, res)
				if res.Err == nil && opts.OnResult != nil {
					onResultMu.Lock()
					opts.OnResult(*res)
					onResultMu.Unlock()
				}
			}
		}()
	}

	// Points are fed in geometry order, not input order: grouping the grid
	// by tag-array shape turns almost every worker transition into a
	// timing-only ResetFor. Results stay in input order regardless, so the
	// rendered table is byte-identical either way.
feed:
	for _, i := range GeometryOrder(pts) {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

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

// gridTrace owns the grid's shared trace: the runner's stream is
// materialized into an immutable arena exactly once (by whichever worker
// gets there first), and every point reads it through an independent
// zero-copy cursor. With StreamPerPoint set it degrades to the legacy
// fresh-stream-per-point behavior.
type gridTrace struct {
	runner *Runner
	ctx    context.Context
	once   sync.Once
	arena  *trace.Arena
	err    error
}

// source returns the reference source for one simulation attempt.
func (g *gridTrace) source() (trace.Stream, error) {
	if g.runner.StreamPerPoint && g.runner.Arena == nil {
		return g.runner.Trace(), nil
	}
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

// runPoint executes one full simulation of res.Point under the retry
// budget, filling res in place.
func (r Runner) runPoint(ctx context.Context, opts Options, shared *gridTrace, ws *workerState, res *Result) {
	retryPoint(ctx, opts, res, func() (cpu.Result, error) {
		return r.runOnce(ctx, opts.PointTimeout, res.Point, shared, ws)
	})
}

// retryPoint runs attempt under the engine's retry/backoff policy, filling
// res in place. An attempt already charged to res (Attempts > 0 with Err
// set, as when the one-pass planner's classification panicked) counts
// against the budget exactly like one made here.
func retryPoint(ctx context.Context, opts Options, res *Result, attempt func() (cpu.Result, error)) {
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
		run, err := attempt()
		if err == nil {
			res.Run, res.Err = run, nil
			return
		}
		res.Err = fmt.Errorf("sweep: point %v: %w", res.Point, err)
	}
}

// runOnce performs a single simulation attempt, converting panics into a
// *PanicError and honoring the per-point timeout through the CPU loop's
// per-batch Interrupt check.
func (r Runner) runOnce(ctx context.Context, timeout time.Duration, pt Point, shared *gridTrace, ws *workerState) (run cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			// A panic may have left the cached hierarchy mid-update; drop
			// it so the retry (and later points) start from clean state.
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
	h, err := ws.hierarchy(r.Configure(pt))
	if err != nil {
		return cpu.Result{}, err
	}
	s, err := shared.source()
	if err != nil {
		return cpu.Result{}, err
	}
	cfg := r.CPU
	cfg.Interrupt = pctx.Err
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
