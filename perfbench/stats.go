package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail percentile:
// a p95 of 40 samples is the second-largest sample, not a tail estimate.
const tailBeyond = 10

// median is the interpolated median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of percentile pct among n
// sorted samples.
func rank(n int, pct float64) int {
	k := int(math.Ceil(pct*float64(n)/100 - 1e-9))
	return max(1, min(k, n))
}

// tailPercentile picks the percentile a tail over n samples may report: want
// itself when at least tailBeyond samples lie above its nearest rank,
// otherwise the highest percentile that still leaves tailBeyond above it. ok
// is false when want did not qualify; with n <= tailBeyond no tail qualifies
// and the median stands in.
func tailPercentile(n int, want float64) (pct float64, ok bool) {
	if n-rank(n, want) >= tailBeyond {
		return want, true
	}
	if n <= tailBeyond {
		return 50, false
	}
	return 100 * float64(n-tailBeyond) / float64(n), false
}

// minSamples is the smallest sample count at which percentile want
// qualifies as a tail.
func minSamples(want float64) int {
	n := tailBeyond + 1
	for n-rank(n, want) < tailBeyond {
		n++
	}
	return n
}

// tail returns the nearest-rank value of the highest qualifying percentile
// at or below want (see tailPercentile), naming a shortfall on stderr so a
// run too short for its tail never passes one off silently.
func tail(name string, xs []float64, want float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pct, ok := tailPercentile(len(xs), want)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d samples only qualify p%.1f, not p%g\n", name, len(xs), pct, want)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), pct)-1]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// gcSample is a reading of the Go runtime's allocation and CPU accounting.
type gcSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	usedCPU    float64 // cumulative non-idle CPU seconds of the Go process
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readGC samples runtime/metrics.
func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{allocBytes: val(0), gcCPU: val(1), usedCPU: val(2) - val(3)}
}

// settle collects garbage so one phase's heap does not tax the next.
func settle() {
	goruntime.GC()
}
