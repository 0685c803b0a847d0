package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"mlcache/internal/experiments"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/sweep"
	"mlcache/internal/trace"
)

// experimentGroups names the experiments.* metric each experiment's
// run time adds to.
var experimentGroups = map[string]string{
	"3-1": "fig3", "3-2": "fig3",
	"4-1": "fig4", "4-2": "fig4", "4-3": "fig4", "4-4": "fig4",
	"5-1": "fig5", "5-2": "fig5", "5-3": "fig5",
	"derived":     "derived",
	"l1opt":       "l1opt",
	"model-check": "model_check",
}

func experimentGroup(id string) (string, error) {
	if strings.HasPrefix(id, "abl-") {
		return "ablation", nil
	}
	if g, ok := experimentGroups[id]; ok {
		return g, nil
	}
	return "", fmt.Errorf("experiment %s has no metric group", id)
}

// surface is one Figure 4/5 speed–size surface an experiments.Context
// memoizes, named by the arguments of Context.Surface.
type surface struct {
	label string
	l1KB  int
	mem   mainmem.Config
	grid  sweep.Grid
}

// paperSurfaces are the direct-mapped surfaces the paper experiments
// compute. Figures 4-1 and 4-2 share the first, and the Figure 5
// break-even analyses reuse the last.
func paperSurfaces() []surface {
	return []surface{
		{"fig4-1", 4, mainmem.Base(), experiments.Fig4Grid()},
		{"fig4-3", 32, mainmem.Base(), experiments.Fig4Grid()},
		{"fig4-4", 4, mainmem.Slow(), experiments.Fig4Grid()},
		{"fig5", 4, mainmem.Base(), experiments.Fig5Grid()},
	}
}

// fig4Surfaces is how many distinct surfaces the Figure 4 experiments
// simulate: 4-2 redraws 4-1's.
const fig4Surfaces = 3

// runPaperQuick runs every experiment in paper order through one shared
// Context with the quick sizing, as `paper -all -quick` does.
func runPaperQuick(b *bench, out *outcome) error {
	opt := experiments.QuickOptions()
	opt.Seed = b.seed
	opt.Parallelism = b.nproc
	exps := experiments.All()
	groups := make([]string, len(exps))
	for i, e := range exps {
		g, err := experimentGroup(e.ID)
		if err != nil {
			return err
		}
		groups[i] = g
	}

	// Set-up materializes the experiments' trace, which the output checks
	// replay; the experiments generate their own copy as they run.
	var arena *trace.Arena
	err := setupSeconds(out, func() { arena = nil }, func() error {
		sp := b.spans.start("bench.setup", nil)
		defer sp.end()
		a, err := genTrace(b.spans, sp, opt.Seed, opt.Refs)
		arena = a
		return err
	})
	if err != nil {
		return err
	}

	// first holds the first pass's rendered output; every later pass must
	// reproduce it byte for byte.
	var (
		first []byte
		last  *experiments.Context
	)
	pass := func(tr *tracer, ph *phase) (time.Duration, error) {
		ctx := experiments.NewContext(opt)
		var text bytes.Buffer
		ps := tr.start("bench.pass", nil)
		start := time.Now()
		for i, e := range exps {
			sp := tr.start("experiments."+groups[i], ps)
			err := e.Run(ctx, &text)
			sp.end()
			out.attempted++
			if err != nil {
				out.failed++
				return 0, fmt.Errorf("experiment %s: %w", e.ID, err)
			}
		}
		d := time.Since(start)
		ps.end()
		ph.passes = append(ph.passes, d.Seconds())
		if first == nil {
			first = text.Bytes()
		} else if !bytes.Equal(first, text.Bytes()) {
			out.mismatch("experiment output differs from the first pass")
		}
		last = ctx
		return d, nil
	}
	if _, _, err := measure(b, out, pass); err != nil {
		return err
	}
	if err := checkSurfaces(b, out, last, opt, arena); err != nil {
		return err
	}

	if b.traced {
		traceLayers(b.spans, out)
		passes := float64(len(b.spans.named("bench.pass")))
		for _, g := range []string{"fig3", "fig4", "fig5", "derived", "ablation", "l1opt", "model_check"} {
			out.layer["experiments."+g+"_s"] = b.spans.seconds("experiments."+g) / passes
		}
		fig4Points := float64(fig4Surfaces * len(experiments.Fig4Grid().Points()))
		out.layer["experiments.fig4_points_per_s"] = ratio(fig4Points, out.layer["experiments.fig4_s"])
		var cfgs []memsys.Config
		for _, pt := range experiments.Fig4Grid().Points() {
			cfgs = append(cfgs, experiments.BaseMachine(4, experiments.L2Config(pt.L2SizeBytes, pt.L2CycleNS, 1), mainmem.Base()))
		}
		return hierarchyBuilds(b.spans, out, cfgs, 1)
	}
	return nil
}

// surfaceChecks is how many surface points each run re-simulates.
const surfaceChecks = 3

// checkSurfaces re-runs a seed-chosen sample of surface points over the
// whole trace with invariant sweeps (sweptRun). Each must reproduce the
// surface's execution time bit for bit, and a window of it must pass the
// per-access invariant checker.
func checkSurfaces(b *bench, out *outcome, ctx *experiments.Context, opt experiments.Options, arena *trace.Arena) error {
	rng := rand.New(rand.NewSource(b.seed))
	surfaces := paperSurfaces()
	for k := 0; k < surfaceChecks; k++ {
		s := surfaces[rng.Intn(len(surfaces))]
		res, err := ctx.Surface(s.l1KB, 1, s.mem, s.grid)
		if err != nil {
			return fmt.Errorf("reading surface %s: %w", s.label, err)
		}
		i, j := rng.Intn(len(s.grid.SizesBytes)), rng.Intn(len(s.grid.CyclesNS))
		cfg := experiments.BaseMachine(s.l1KB, experiments.L2Config(s.grid.SizesBytes[i], s.grid.CyclesNS[j], 1), s.mem)
		label := fmt.Sprintf("%s point (%d KB, %d ns)", s.label, s.grid.SizesBytes[i]>>10, s.grid.CyclesNS[j])
		got, err := sweptRun(cfg, arena, opt.Warmup)
		out.attempted++
		switch {
		case err != nil:
			out.mismatch("%s: %v", label, err)
		case got.TimeNS != res.TimeNS[i][j] || got.RelTime != res.Rel[i][j]:
			out.mismatch("%s: re-run gives %d ns (rel %v), surface has %d ns (rel %v)",
				label, got.TimeNS, got.RelTime, res.TimeNS[i][j], res.Rel[i][j])
		}
		checkInvariants(out, rng, label, cfg, arena)
	}
	return nil
}
