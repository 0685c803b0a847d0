package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"mlcache"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// simConfigRefs is the sim-configs trace length: a few million references,
// long enough that each Simulate call runs for a fifth of a second.
const simConfigRefs = 3_000_000

// simConfigNames are the committed hierarchies under configs/.
var simConfigNames = []string{"base", "slowmem", "threelevel"}

type namedConfig struct {
	name string
	cfg  mlcache.Config
}

// runSimConfigs simulates the three committed hierarchies one after
// another on one goroutine over one materialized trace: the simulator
// alone, with no planner, service or network.
func runSimConfigs(b *bench, out *outcome) error {
	var (
		arena *trace.Arena
		cfgs  []namedConfig
	)
	drop := func() { arena, cfgs = nil, nil }
	err := setupSeconds(out, drop, func() error {
		sp := b.spans.start("bench.setup", nil)
		defer sp.end()
		a, err := genTrace(b.spans, sp, b.seed, simConfigRefs)
		if err != nil {
			return err
		}
		c, err := loadConfigs()
		if err != nil {
			return err
		}
		arena, cfgs = a, c
		return nil
	})
	if err != nil {
		return err
	}
	warmup := int64(arena.Len() / 5)

	// want holds the first pass's results; every later pass, traced or
	// not, must reproduce them exactly.
	want := make([]*mlcache.Result, len(cfgs))
	pass := func(tr *tracer, ph *phase) (time.Duration, error) {
		ps := tr.start("bench.pass", nil)
		start := time.Now()
		for i, c := range cfgs {
			sp := tr.start("cpu.simulate."+c.name, ps)
			res, err := mlcache.Simulate(c.cfg, arena.Cursor(), warmup)
			sp.set("refs", int64(arena.Len()))
			sp.end()
			out.attempted++
			if err != nil {
				out.failed++
				return 0, fmt.Errorf("simulating %s: %w", c.name, err)
			}
			if want[i] == nil {
				want[i] = &res
			} else if !reflect.DeepEqual(*want[i], res) {
				out.mismatch("%s: pass result differs from the first pass", c.name)
			}
		}
		d := time.Since(start)
		ps.end()
		ph.passes = append(ph.passes, d.Seconds())
		return d, nil
	}
	if _, _, err := measure(b, out, pass); err != nil {
		return err
	}

	// Output checks, outside the measured phases: a seed-chosen sample of
	// the configurations re-runs over the whole trace with invariant
	// sweeps, which must reproduce the passes' result exactly, and over a
	// window with the per-access invariant checker.
	rng := rand.New(rand.NewSource(b.seed))
	for _, i := range rng.Perm(len(cfgs))[:2] {
		c := cfgs[i]
		got, err := sweptRun(c.cfg, arena, warmup)
		out.attempted++
		switch {
		case err != nil:
			out.mismatch("%s: swept run: %v", c.name, err)
		case !reflect.DeepEqual(*want[i], got):
			out.mismatch("%s: swept run's result differs from the passes'", c.name)
		}
		checkInvariants(out, rng, c.name, c.cfg, arena)
	}

	if b.traced {
		traceLayers(b.spans, out)
		var run float64
		var hier []memsys.Config
		for i, c := range cfgs {
			name := "cpu.simulate." + c.name
			secs := b.spans.seconds(name)
			run += secs
			out.layer["cpu.refs_per_s."+c.name] = ratio(float64(b.spans.attr(name, "refs")), secs)
			modelCounts(out, c.name, *want[i])
			hier = append(hier, c.cfg)
		}
		out.layer["cpu.run_s"] = run / float64(len(b.spans.named("bench.pass")))
		return hierarchyBuilds(b.spans, out, hier, 5)
	}
	return nil
}

// loadConfigs parses the committed hierarchy descriptions.
func loadConfigs() ([]namedConfig, error) {
	var out []namedConfig
	for _, name := range simConfigNames {
		f, err := os.Open(filepath.Join("configs", name+".cfg"))
		if err != nil {
			return nil, err
		}
		cfg, err := mlcache.ParseConfig(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		out = append(out, namedConfig{name, cfg})
	}
	return out, nil
}

// modelCounts reports what the modelled hardware did, as exact counts.
func modelCounts(out *outcome, name string, r mlcache.Result) {
	m := r.Mem
	var writebacks, stallNS int64
	levels := []*memsys.LevelStats{m.L1I, m.L1D, m.L1}
	for i := range m.Down {
		levels = append(levels, &m.Down[i])
	}
	for _, l := range levels {
		if l != nil {
			writebacks += l.Cache.Writebacks
			stallNS += l.InBuf.StallNS
		}
	}
	stallNS += m.MemBuf.StallNS
	var l2Misses int64
	if len(m.Down) > 0 {
		l2Misses = m.Down[0].Cache.ReadMisses
	}
	p := "model." + name + "."
	out.layer[p+"cycles"] = float64(r.Cycles)
	out.layer[p+"l1_read_misses"] = float64(m.FirstLevelReadMisses())
	out.layer[p+"l2_read_misses"] = float64(l2Misses)
	out.layer[p+"writebacks"] = float64(writebacks)
	out.layer[p+"wbuf_stall_ns"] = float64(stallNS)
	out.layer[p+"mem_reads"] = float64(m.MemReads)
	out.layer[p+"bus_busy_cycles"] = float64(m.MemBusBusyCycles)
}
