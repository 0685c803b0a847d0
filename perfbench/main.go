// Command perfbench is mlcache's benchmark: one command that generates a
// workload's inputs from a seed, drives them through the entry points
// users call, checks the outputs, and prints the metrics BENCHMARK.json
// names as one JSON object on the last line of standard output.
//
//	perfbench --workload sim-configs --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the workload untraced and then traced for
// half the budget each, prints the per-layer metrics derived from the
// spans of the traced half plus the tracing overhead, and writes the spans
// to .perfbench/spans/. Run it from the repository root (perfbench/run.sh
// builds and starts it); README.md in this directory describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// defaultSeed is the workload seed used when --seed is omitted.
	defaultSeed = 1
	// heldOutSeed is never used while tuning the benchmark or a change;
	// claims are re-checked on it (README.md, "Seeds").
	heldOutSeed = 9001
)

// workloads maps each workload name in BENCHMARK.json to the function
// that runs it.
var workloads = map[string]func(*bench, *outcome) error{
	"sim-configs":      runSimConfigs,
	"paper-quick":      runPaperQuick,
	"service-mix":      runServiceMix,
	"distributed-grid": runDistributedGrid,
}

// bench is one benchmark run's fixed parameters.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	nproc    int
	// tmp is this run's scratch directory, removed when the run ends.
	tmp string
	// spans records the traced phase and the set-up of a traced run; nil
	// in an untraced run.
	spans *tracer
}

// phaseBudget is how long each measured phase runs: the whole budget
// untraced, or half untraced and half traced.
func (b *bench) phaseBudget() time.Duration {
	if b.traced {
		return b.budget / 2
	}
	return b.budget
}

// outcome is what a workload's run returns: the end-to-end metrics of
// its untraced phase, the per-layer metrics of its traced phase, and its
// operation accounting.
type outcome struct {
	attempted int64
	failed    int64
	// mismatches counts output checks that failed; any makes the run
	// incorrect.
	mismatches int64
	e2e        map[string]float64
	layer      map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records a failed output check.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches++
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: output check failed: "+format+"\n", args...)
}

// spec is the part of BENCHMARK.json the program needs: the metric names
// it must print and their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	drive, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if !sp.hasWorkload(*name) {
		return fmt.Errorf("workload %q is not listed in BENCHMARK.json", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("configs", "base.cfg")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(".perfbench", "tmp"), "run-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		nproc:    runtime.NumCPU(),
		tmp:      tmp,
	}
	if b.traced {
		b.spans = newTracer()
	}
	out := newOutcome()
	if err := drive(b, out); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if b.traced {
		path, err := b.spans.write(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", b.spans.len(), path)
	}
	res, err := sp.result(b.traced, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// result assembles the printed object. Every end-to-end metric must have
// been measured; a per-layer metric the workload never reaches reads 0.
// A value a workload produced under a name BENCHMARK.json does not list is
// a bug, as is a value that is not a finite number.
func (sp *spec) result(traced bool, out *outcome) (*result, error) {
	want, got := sp.EndToEnd, out.e2e
	if traced {
		want, got = sp.PerLayer, out.layer
	}
	known := map[string]bool{}
	res := &result{
		Correct:   out.mismatches == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		known[m.Name] = true
		v, ok := got[m.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are not listed in BENCHMARK.json", unknown)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
