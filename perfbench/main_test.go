package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"dvdc/internal/runtime"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pct  float64
		ok   bool
	}{
		{1000, 99, 99, true},
		{999, 99, 100 * 989.0 / 999, false},
		{200, 95, 95, true},
		{199, 95, 100 * 189.0 / 199, false},
		{100, 90, 90, true},
		{40, 95, 75, false},
		{10, 95, 50, false},
	}
	for _, c := range cases {
		pct, ok := tailPercentile(c.n, c.want)
		if ok != c.ok || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.want, pct, ok, c.pct, c.ok)
		}
		if c.n > tailBeyond {
			// The chosen percentile leaves exactly tailBeyond samples above
			// it when want itself falls short, and at least that many
			// otherwise; one sample fewer would not qualify.
			beyond := c.n - rank(c.n, pct)
			if beyond < tailBeyond || (!ok && beyond != tailBeyond) {
				t.Errorf("n=%d p%g leaves %d samples above", c.n, pct, beyond)
			}
		}
	}
	for want, n := range map[float64]int{90: 100, 95: 200, 99: 1000} {
		if got := minSamples(want); got != n {
			t.Errorf("minSamples(%g) = %d, want %d", want, got, n)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tail("test", xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190", got)
	}
	if got := tail("test", xs[:100], 95); got != 90 {
		t.Errorf("tail p95 of 1..100 = %g, want the p90 value 90", got)
	}
}

// tiny shrinks a workload so a run takes a fraction of a second.
func tiny(w *workload) *workload {
	c := *w
	c.spec.pages = 32
	c.params.steps = 16
	return &c
}

// TestEveryMetricPrinted runs each workload briefly at tiny sizes, untraced
// and traced, and checks that every metric BENCHMARK.json names is printed,
// finite, and carries its unit, and that the correctness gate compared at
// least one sampled state against the shadow.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live clusters")
	}
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "bulk-uniform,service-rewrite,recover-rs2" {
		t.Fatalf("BENCHMARK.json workloads %s", got)
	}
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 0.3, maxSeconds: 0.3, setups: 2, tmpDir: t.TempDir()}
			rep, err := benchmark(tiny(w), cfg, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed < 0 || rep.checks < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d shadow checks=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.checks)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not printed", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateCatchesTampering drives a few tiny rounds, then alters one logged
// VM state at a time: the shadow replay must pass the true log and refuse
// every altered one.
func TestGateCatchesTampering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live cluster")
	}
	w, err := findWorkload("bulk-uniform")
	if err != nil {
		t.Fatal(err)
	}
	w = tiny(w)
	r := &runner{w: w, cfg: runConfig{seed: 7}, res: &result{}, log: &opLog{}}
	defer r.tearDown()
	if err := r.setUp(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.round(w.params.steps); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.log.check(r.c); err != nil {
		t.Fatal(err)
	}
	if n, err := r.log.replay(w.spec, 7); err != nil || n != 1 {
		t.Fatalf("true log: %d checks, %v", n, err)
	}
	last := &r.log.ops[len(r.log.ops)-1]
	for _, name := range sortedNames(last.states) {
		orig := last.states[name]
		for _, bad := range []runtime.VMState{
			{Checksum: orig.Checksum ^ 1, Epoch: orig.Epoch},
			{Checksum: orig.Checksum, Epoch: orig.Epoch + 1},
		} {
			last.states[name] = bad
			if _, err := r.log.replay(w.spec, 7); err == nil {
				t.Errorf("replay accepted VM %s at %016x@%d, committed %016x@%d", name, bad.Checksum, bad.Epoch, orig.Checksum, orig.Epoch)
			}
		}
		last.states[name] = orig
	}
	// A log that misses one of the steps the cluster ran must fail too.
	r.log.ops = r.log.ops[1:]
	if _, err := r.log.replay(w.spec, 7); err == nil {
		t.Error("replay accepted a log missing a step")
	}
}

// TestBadArguments checks that a bad invocation prints no result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bulk-uniform", "--trace", "2"},
		{"--workload", "bulk-uniform", "--seconds", "0"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}
