package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// A workload builds its environment at least setupRepeats times and for
// at least setupMinTime. setup_s reports the median, so one slow set-up
// does not move it, and a set-up of a few tens of milliseconds gets
// enough samples to hold still.
const (
	setupRepeats = 5
	setupMinTime = time.Second
)

// percentile returns the p-th percentile (0 ≤ p ≤ 1) of xs, interpolating
// linearly between order statistics; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spreadOf summarizes a sample for the diagnostic line on standard error.
func spreadOf(xs []float64) string {
	return fmt.Sprintf("min %.4g p10 %.4g p25 %.4g p50 %.4g p90 %.4g max %.4g",
		percentile(xs, 0), percentile(xs, 0.1), percentile(xs, 0.25), median(xs), percentile(xs, 0.9), percentile(xs, 1))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overheadPct is the tracing overhead: how much longer the traced phase's
// median pass took than the untraced phase's, in percent.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (ratio(median(traced), median(untraced)) - 1)
}

// peakRSSMB returns the process's resident-memory high-water mark in MB
// (VmHWM), or 0 where /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS sets the process's resident-memory high-water mark to its
// current resident size (Linux clear_refs "5").
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the memory high-water mark: %w", err)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
