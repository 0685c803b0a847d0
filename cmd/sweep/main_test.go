package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update regenerates the golden file instead of comparing against it. Do
// so only when a table change is intended, and say why in the commit.
var update = flag.Bool("update", false, "rewrite testdata/fig41.csv from the full plan at -par 1")

// runMainEnv, when set, makes the test binary run the sweep command
// itself: the tests re-execute their own binary with it, so main runs
// unmodified in a child process, flags, os.Exit and all.
const runMainEnv = "MLCACHE_SWEEP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepCLI runs the sweep command with args and returns its stdout.
func sweepCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sweep %v: %v\nstderr:\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// TestFig41CSVGolden pins the CLI's output for a small Fig 4-1 grid
// (4–64 KB L2, 1–3 cycles, 30K synthetic references) byte for byte, under
// both plans and both at one worker and at the default parallelism. The
// golden file was generated with the full plan.
func TestFig41CSVGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fig41.csv")
	grid := []string{"-sizes", "4-64", "-cycles", "1-3", "-n", "30000", "-csv"}
	if *update {
		out := sweepCLI(t, append(grid, "-plan", "full", "-par", "1")...)
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, plan, par string }{
		{"full/par1", "full", "1"},
		{"full/default", "full", "0"},
		{"onepass/par1", "onepass", "1"},
		{"onepass/default", "onepass", "0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := sweepCLI(t, append(grid, "-plan", tc.plan, "-par", tc.par)...)
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
