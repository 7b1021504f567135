// Command perfbench is the repository's benchmark: it runs one workload
// against a live in-process loopback DVDC cluster, checks every committed
// VM image against the runtime's shadow model, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload bulk-uniform --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload twice, untraced and then fully traced, and prints the
// per-layer metrics: spans and counters of the traced run, kernel replays
// at the traced run's own sizes, and the untraced run's workload-specific
// latencies. See README.md in this directory for the workloads and the
// metric table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/runtime"
)

// params are a workload's guest and load settings.
type params struct {
	steps          uint64  // guest steps per VM per round (per request for the service)
	warmUp         int     // untimed rounds before the window
	roundsPerCycle int     // recover-rs2: rounds between failures
	rate           float64 // service-rewrite: requests per second
}

// workload is one benchmark input: a cluster shape, its load, and the
// function that runs its measured window.
type workload struct {
	name    string
	spec    clusterSpec
	params  params
	service bool // checkpoints arrive as service requests
	drive   func(*runner) error
}

func paperLayout() (*cluster.Layout, error) { return cluster.Paper12VM() }

func rs2Layout() (*cluster.Layout, error) { return cluster.BuildDistributedGroups(7, 1, 2, 3) }

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = []*workload{
	{
		name:   "bulk-uniform",
		spec:   clusterSpec{layout: paperLayout, pages: 1024, pageSize: 4096, kind: runtime.WorkloadUniform},
		params: params{steps: 1024, warmUp: 2},
		drive:  driveBulk,
	},
	{
		name:    "service-rewrite",
		spec:    clusterSpec{layout: paperLayout, pages: 256, pageSize: 4096, kind: runtime.WorkloadRewrite, dedup: true},
		params:  params{steps: 128, warmUp: 32, rate: 30},
		service: true,
		drive:   driveService,
	},
	{
		name:   "recover-rs2",
		spec:   clusterSpec{layout: rs2Layout, pages: 128, pageSize: 4096, kind: runtime.WorkloadUniform},
		params: params{steps: 64, warmUp: 2, roundsPerCycle: 3},
		drive:  driveRecover,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, runs the benchmark and prints the result line; it
// returns the process exit code. Nothing is printed on stdout unless every
// correctness check passed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bulk-uniform, service-rewrite or recover-rs2")
	seed := fs.Int64("seed", 1, "workload seed (VM write streams, failure rotation)")
	seconds := fs.Float64("seconds", 10, "measured window per run, in seconds")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %v, trace %d: %v\n", *name, *seconds, *trace, err)
		return 2
	}
	cfg := runConfig{
		seed:       *seed,
		seconds:    *seconds,
		maxSeconds: 2 * *seconds,
		setups:     31,
		tmpDir:     ".bench_build/tmp",
	}
	rep, err := benchmark(w, cfg, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	checks    int               // shadow checks the correctness gate passed
}

// metricSet collects metrics, refusing any that is not a finite number.
type metricSet struct {
	m   map[string]metric
	bad []string
}

func (s *metricSet) set(name, unit string, v float64) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.bad = append(s.bad, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload leaves idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// benchmark measures one workload and assembles its report.
func benchmark(w *workload, cfg runConfig, traced bool, stderr io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return nil, err
	}
	var set metricSet
	var attempted, failed, checks int
	if !traced {
		u, err := measure(w, cfg, nil)
		if err != nil {
			return nil, err
		}
		endToEnd(&set, u)
		attempted, failed, checks = u.attempted, u.failed, u.checks
		fmt.Fprintf(stderr, "perfbench: %s: %d rounds, %d shadow checks passed; round_ms_p50 by quarter of the window: %s\n",
			w.name, u.rounds(), u.checks, quarterMedians(u.roundMS))
		if len(u.requestMS) > 0 {
			fmt.Fprintf(stderr, "perfbench: %s: request_ms_p50 by quarter: %s; sched_wait_ms_p50 by quarter: %s\n",
				w.name, quarterMedians(u.requestMS), quarterMedians(u.schedMS))
		}
	} else {
		cfg.setups = 0
		u, err := measure(w, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("untraced run: %w", err)
		}
		t, err := measure(w, cfg, newSpanLog())
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		sz, err := sizesOf(w, t)
		if err != nil {
			return nil, err
		}
		k, err := replayKernels(w, sz, cfg.seed, cfg.tmpDir)
		if err != nil {
			return nil, fmt.Errorf("kernel replay: %w", err)
		}
		perLayer(&set, w, u, t, k)
		attempted, failed, checks = u.attempted+t.attempted, u.failed+t.failed, u.checks+t.checks
		fmt.Fprintf(stderr, "perfbench: %s: %d+%d rounds, %d+%d shadow checks passed\n",
			w.name, u.rounds(), t.rounds(), u.checks, t.checks)
	}
	if len(set.bad) > 0 {
		return nil, fmt.Errorf("metrics not finite: %v", set.bad)
	}
	names := make([]string, 0, len(set.m))
	for n := range set.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "  %-36s %14.4f %s\n", n, set.m[n].Value, set.m[n].Unit)
	}
	return &report{Correct: true, Attempted: attempted, Failed: failed, Metrics: set.m, checks: checks}, nil
}

// quarterMedians renders the medians of the four quarters of xs, so drift
// inside a window shows next to the figure it would distort.
func quarterMedians(xs []float64) string {
	var out []string
	for q := 0; q < 4; q++ {
		out = append(out, fmt.Sprintf("%.3f", median(xs[q*len(xs)/4:(q+1)*len(xs)/4])))
	}
	return strings.Join(out, " ")
}

// measure sets the workload up, drives its window, and then — outside the
// window — replays the logged operations into the shadow model and times
// cfg.setups further set-ups. spans traces the run when non-nil.
func measure(w *workload, cfg runConfig, spans *spanLog) (*result, error) {
	r := &runner{w: w, cfg: cfg, spans: spans, res: &result{}, log: &opLog{}}
	defer r.tearDown()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	if err := w.drive(r); err != nil {
		return nil, err
	}
	if r.res.rounds() == 0 {
		return nil, errors.New("the window committed no round")
	}
	peak, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	r.res.memMB = float64(peak) / 1e6
	r.stopService()
	if err := r.log.check(r.c); err != nil {
		return nil, err
	}
	r.tearDown()
	settle()
	checks, err := r.log.replay(w.spec, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	r.res.checks = checks
	// Set-ups are timed after the window: in a fresh process, before any
	// window has run, set-ups took two to three times longer, by an amount
	// that differed from process to process.
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		if err := r.setUp(); err != nil {
			return nil, err
		}
		r.res.setupS = append(r.res.setupS, time.Since(t0).Seconds())
		r.tearDown()
		settle()
	}
	return r.res, nil
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(s *metricSet, u *result) {
	// Throughput and CPU cost use the median round against the mean dirty
	// data per round (which the guest's write stream keeps near constant),
	// so one stalled round does not move them.
	dirtyMB := ratio(float64(u.dirtyBytes())/1e6, float64(u.rounds()))
	s.set("setup_s", "s", median(u.setupS))
	s.set("round_ms_p50", "ms", median(u.roundMS))
	s.set("round_ms_p95", "ms", tail("round_ms_p95", u.roundMS, 95))
	s.set("ckpt_dirty_mb_s", "MB/s", ratio(dirtyMB, median(u.roundMS)/1e3))
	s.set("ckpt_cpu_ms_per_mb", "ms/MB", ratio(median(u.cpuMS), dirtyMB))
	s.set("mem_peak_mb", "MB", u.memMB)
}

// sizesOf derives the kernel replay sizes from a traced run's counters.
func sizesOf(w *workload, t *result) (kernelSizes, error) {
	layout, err := w.spec.layout()
	if err != nil {
		return kernelSizes{}, err
	}
	sz := kernelSizes{
		pages:      w.spec.pages,
		pageSize:   w.spec.pageSize,
		groupSize:  len(layout.Groups[0].Members),
		tolerance:  layout.Tolerance,
		batchBytes: 64 << 10,
	}
	// Delta bytes are counted once per parity peer; dedup savings once.
	captured := t.nodes.DeltaRawBytes/int64(sz.tolerance) + t.nodes.DedupSavedBytes
	sz.dirtyPages = max(1, int(captured/int64(sz.pageSize)/int64(t.rounds())/int64(len(layout.VMs))))
	if n := len(t.rpcMS["delta-chunk"]); n > 0 && t.nodes.DeltaWireBytes > 0 {
		sz.batchBytes = int(t.nodes.DeltaWireBytes / int64(n))
	}
	return sz, nil
}

// rpcMessages are the messages whose rpc span medians are reported.
var rpcMessages = []string{"prepare", "delta-chunk", "commit", "read-chunk", "install-chunk"}

// perLayer fills the per-layer metrics: layer numbers from the traced run
// t and the replayed kernels k, the workload-specific latencies from the
// untraced run u, and the tracing overhead from the two together.
func perLayer(s *metricSet, w *workload, u, t *result, k kernels) {
	rounds := float64(t.rounds())
	dirty := float64(t.dirtyBytes())

	// Workload-specific end-to-end latencies, untraced.
	s.set("recovery_ms_p50", "ms", median(u.recoveryMS))
	s.set("recovery_ms_p90", "ms", tail("recovery_ms_p90", u.recoveryMS, 90))
	s.set("reprotect_ms_p50", "ms", median(u.reprotectMS))
	s.set("request_ms_p50", "ms", median(u.requestMS))
	s.set("request_ms_p95", "ms", tail("request_ms_p95", u.requestMS, 95))
	s.set("failed_frac", "ratio", ratio(float64(u.failed+t.failed), float64(u.attempted+t.attempted)))

	s.set("runtime.prepare_ms_p50", "ms", median(t.prepareMS))
	s.set("runtime.commit_ms_p50", "ms", median(t.commitMS))
	s.set("runtime.retries_per_round", "count", ratio(float64(t.retries), rounds))
	s.set("runtime.rollback_ms", "ms", median(t.rollbackMS))
	s.set("runtime.restore_group_ms_max", "ms", median(t.restoreMaxMS))
	s.set("runtime.rehome_ms_max", "ms", median(t.rehomeMaxMS))
	s.set("runtime.repair_ms", "ms", median(t.repairMS))
	s.set("runtime.rebalance_ms", "ms", median(t.rebalanceMS))
	s.set("runtime.post_recovery_round_ms", "ms", median(t.postRoundMS))

	s.set("core.capture_gb_s", "GB/s", k.captureGBs)
	s.set("core.fold_gb_s", "GB/s", ratio(float64(t.nodes.DeltaRawBytes), float64(t.nodes.FoldNanos)))
	s.set("core.drain_gb_s", "GB/s", k.drainGBs)
	s.set("core.rs2_reconstruct_ms", "ms", k.rs2ReconstructMS)

	s.set("parity.xor_gb_s", "GB/s", k.xorGBs)
	s.set("parity.rs2_reconstruct_gb_s", "GB/s", k.rs2ReconstructGBs)

	s.set("wire.encode_gb_s", "GB/s", k.encodeGBs)
	s.set("wire.decode_gb_s", "GB/s", k.decodeGBs)
	s.set("wire.chunks_per_round", "count", ratio(float64(t.chunks), rounds))
	s.set("wire.bytes_per_dirty_byte", "ratio", ratio(float64(t.shipped), dirty))

	s.set("transport.loopback_gb_s", "GB/s", k.loopbackGBs)
	for _, msg := range rpcMessages {
		s.set("transport.rpc_ms_p50."+msg, "ms", median(t.rpcMS[msg]))
	}
	s.set("transport.dup_chunks", "count", float64(t.nodes.DupChunks))

	s.set("bufpool.miss_ratio", "ratio", ratio(float64(t.pool.Misses), float64(t.pool.Gets)))
	s.set("bufpool.oversize_per_round", "count", ratio(float64(t.pool.Oversize), rounds))
	s.set("gc.alloc_mb_per_round", "MB", ratio(t.gc.allocBytes/1e6, rounds))
	s.set("gc.cpu_frac", "ratio", ratio(t.gc.gcCPU, t.gc.usedCPU))

	s.set("dedup.hit_ratio", "ratio", ratio(float64(t.nodes.DedupHits), float64(t.nodes.DedupHits+t.nodes.DedupMisses)))
	s.set("dedup.saved_mb_per_round", "MB", ratio(float64(t.nodes.DedupSavedBytes)/1e6, rounds))
	s.set("vm.page_hash_gb_s", "GB/s", k.pageHashGBs)

	s.set("service.submit_ms_p50", "ms", median(t.submitMS))
	s.set("service.sched_wait_ms_p50", "ms", median(t.schedMS))
	s.set("service.sched_wait_ms_p99", "ms", tail("service.sched_wait_ms_p99", t.schedMS, 99))
	s.set("service.exec_ms_p50", "ms", median(t.execMS))
	s.set("service.observe_ms_p50", "ms", median(t.observeMS))
	s.set("service.retries_per_request", "count", ratio(float64(t.reqRetries), float64(t.requests)))
	s.set("service.rejected", "count", float64(u.rejected+t.rejected))

	s.set("journal.append_sync_us_p50", "us", k.journalAppendSyncUS)
	s.set("journal.fsyncs_per_request", "count", ratio(t.fsyncs, float64(t.requests)))

	// Tracing overhead on the workload's headline latency: request latency
	// where requests drive the rounds, round wall time elsewhere.
	base, traced := median(u.roundMS), median(t.roundMS)
	if w.service {
		base, traced = median(u.requestMS), median(t.requestMS)
	}
	s.set("obs.overhead_pct", "%", 100*ratio(traced-base, base))
	s.set("obs.spans_per_round", "count", ratio(float64(t.spans), rounds))
	s.set("ledger.unattributed_frac", "ratio", ratio(float64(t.gap), float64(t.gapWall)))

	s.set("cluster.plan_recovery_us", "us", k.planRecoveryUS)
	s.set("bench.late_ms_p99", "ms", tail("bench.late_ms_p99", append(append([]float64(nil), u.lateMS...), t.lateMS...), 99))
}
