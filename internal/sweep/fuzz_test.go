package sweep

import (
	"context"
	"reflect"
	"testing"

	"mlcache/internal/cache"
	"mlcache/internal/cpu"
	"mlcache/internal/mainmem"
	"mlcache/internal/memsys"
	"mlcache/internal/trace"
)

// Bits of FuzzReplayEquivalence's shape word. Each selects one hierarchy
// variation; the zero word is onepassBase's shape from the memsys tests.
const (
	fzUnified        = 1 << iota // unified first level instead of split I+D
	fzWriteThrough               // write-through, no-write-allocate first level
	fzWBShallow                  // write-buffer depth 1
	fzWBOff                      // no write buffers (with fzWBShallow: depth 8)
	fzCoalesce                   // write-buffer coalescing
	fzSubBlock                   // sub-blocked L2 (64-byte blocks, 16-byte fetch)
	fzThreeLevel                 // an L3 below the L2
	fzL2FIFO                     // FIFO L2 replacement
	fzL2Random                   // Random L2 replacement (with fzL2FIFO: LRU)
	fzL1FIFO                     // FIFO first-level replacement
	fzL1Random                   // Random first-level replacement
	fzL1TwoWay                   // 2-way first level
	fzL2WriteThrough             // write-through L2
	fzSlowMem                    // 2x slower main memory
)

// fuzzConfigure returns a Configure for one shape word. The grid point
// sets the L2 size, cycle time and associativity.
func fuzzConfigure(shape uint32) func(Point) memsys.Config {
	return func(pt Point) memsys.Config {
		level := func(name string, size int64, block int, cycleNS int64) memsys.LevelConfig {
			return memsys.LevelConfig{
				Cache: cache.Config{
					Name: name, SizeBytes: size, BlockBytes: block, Assoc: 1,
					Repl: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
				},
				CycleNS: cycleNS,
			}
		}
		firsts := []*memsys.LevelConfig{}
		cfg := memsys.Config{CPUCycleNS: 10, Memory: mainmem.Base()}
		if shape&fzUnified != 0 {
			cfg.L1 = level("L1", 512, 16, 10)
			firsts = append(firsts, &cfg.L1)
		} else {
			cfg.SplitL1 = true
			cfg.L1I, cfg.L1D = level("L1I", 256, 16, 10), level("L1D", 256, 16, 10)
			firsts = append(firsts, &cfg.L1I, &cfg.L1D)
		}
		for _, lc := range firsts {
			if shape&fzWriteThrough != 0 {
				lc.Cache.Write, lc.Cache.Alloc = cache.WriteThrough, cache.NoWriteAllocate
			}
			if shape&fzL1TwoWay != 0 {
				lc.Cache.Assoc = 2
			}
			switch {
			case shape&fzL1Random != 0:
				lc.Cache.Repl = cache.Random
			case shape&fzL1FIFO != 0:
				lc.Cache.Repl = cache.FIFO
			}
		}
		l2 := level("L2", pt.L2SizeBytes, 32, pt.L2CycleNS)
		l2.Cache.Assoc = pt.L2Assoc
		if shape&fzSubBlock != 0 {
			l2.Cache.BlockBytes, l2.Cache.FetchBytes = 64, 16
		}
		switch shape & (fzL2FIFO | fzL2Random) {
		case fzL2FIFO:
			l2.Cache.Repl = cache.FIFO
		case fzL2Random:
			l2.Cache.Repl = cache.Random
		}
		if shape&fzL2WriteThrough != 0 {
			l2.Cache.Write = cache.WriteThrough
		}
		cfg.Down = []memsys.LevelConfig{l2}
		if shape&fzThreeLevel != 0 {
			cfg.Down = append(cfg.Down, level("L3", 8*1024, 64, 60))
		}
		switch shape & (fzWBShallow | fzWBOff) {
		case fzWBShallow:
			cfg.WBDepth = 1
		case fzWBOff:
			cfg.WBDepth = -1
		case fzWBShallow | fzWBOff:
			cfg.WBDepth = 8
		}
		cfg.WBCoalesce = shape&fzCoalesce != 0
		if shape&fzSlowMem != 0 {
			cfg.Memory = mainmem.Slow()
		}
		return cfg
	}
}

// fuzzArena decodes two bytes per reference — kind, PID and a word
// address within 16 KB — and repeats the sequence up to 3000 references so
// the caches see reuse.
func fuzzArena(raw []byte) *trace.Arena {
	var refs []trace.Ref
	for i := 0; i+1 < len(raw); i += 2 {
		refs = append(refs, trace.Ref{
			Kind: trace.Kind(raw[i] % 3),
			PID:  uint16(raw[i+1] >> 7),
			Addr: (uint64(raw[i]>>2) | uint64(raw[i+1]&0x7f)<<6) * 4,
		})
	}
	for n := len(refs); n > 0 && len(refs) < 3000; {
		refs = append(refs, refs[:n]...)
	}
	return trace.NewArena(refs)
}

// FuzzReplayEquivalence: for random hierarchies and traces, every point of
// a one-pass grid equals the full simulation of that point. The only
// allowed difference is the documented one: a replayed point leaves the
// diagnostic PerPID and StallHist empty. Points analyticReason sends to
// the full path must match exactly.
func FuzzReplayEquivalence(f *testing.F) {
	seedTrace := []byte{0, 1, 4, 2, 9, 3, 2, 130, 1, 5, 6, 200, 13, 7, 0, 1, 22, 64, 5, 5}
	for _, shape := range []uint32{
		0, // onepassBase
		fzWriteThrough,
		fzUnified,
		fzSubBlock,
		fzThreeLevel,
		fzWBShallow | fzWBOff, // deep buffers
		fzWBShallow,
		fzWBOff,
		fzCoalesce,
		fzL2FIFO,
		fzL2Random,
		fzL1FIFO | fzL1TwoWay,
		fzL2WriteThrough | fzSlowMem,
	} {
		f.Add(shape, uint8(1), seedTrace)
	}
	for warm := uint8(0); warm < 4; warm++ {
		f.Add(uint32(0), warm, seedTrace)
	}
	f.Fuzz(func(t *testing.T, shape uint32, warm uint8, raw []byte) {
		arena := fuzzArena(raw)
		n := int64(arena.Len())
		warmup := [...]int64{0, n / 3, n, n + 100}[warm%4]
		ccfg := cpu.Config{CycleNS: 10, WarmupRefs: warmup}
		configure := fuzzConfigure(shape)
		pts := Grid{
			SizesBytes: []int64{1024, 4096},
			CyclesNS:   []int64{20, 50},
			Assocs:     []int{1, 2},
		}.Points()
		run := func(plan PlanMode) []Result {
			r := Runner{Configure: configure, Arena: arena, CPU: ccfg, Plan: plan, Parallelism: 2}
			res, err := r.RunContext(context.Background(), pts, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want, got := run(PlanFull), run(PlanOnePass)
		for i := range pts {
			w, g := want[i], got[i]
			if w.Err != nil || g.Err != nil {
				t.Fatalf("point %v: full err %v, one-pass err %v", pts[i], w.Err, g.Err)
			}
			if analyticReason(configure(pts[i]), ccfg) == "" && g.Run.PerPID == nil && g.Run.StallHist == [16]int64{} {
				g.Run.PerPID, g.Run.StallHist = w.Run.PerPID, w.Run.StallHist
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("shape %#x warmup %d point %v: one-pass differs from full\nfull:     %+v\none-pass: %+v",
					shape, warmup, pts[i], w.Run, g.Run)
			}
		}
	})
}
