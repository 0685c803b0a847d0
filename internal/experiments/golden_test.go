package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenOptions is the pinned sizing of testdata/*.golden. Changing it
// changes every golden file.
func goldenOptions() Options {
	return Options{Seed: 1, Refs: 30_000, Warmup: 6_000}
}

// TestGolden pins the reproduced numbers absolutely: every experiment of
// All() is rendered through one shared Context, in paper order as
// cmd/paper -all runs them, and compared byte for byte with
// testdata/<id>.golden. The relative gates (one-pass vs full plan,
// distributed vs single-process) cannot catch a change that moves every
// path the same way; this one does. Regenerate with
//
//	go test ./internal/experiments -run TestGolden -update
//
// and record the reason in EXPERIMENTS.md.
func TestGolden(t *testing.T) {
	ctx := NewContext(goldenOptions())
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(ctx, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.ID+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s differs from the golden file\n%s", path, firstDiff(string(want), buf.String()))
			}
		})
	}
}

// firstDiff describes the first line at which got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "(no line differs)"
}
