package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/obs"
	"dvdc/internal/runtime"
	"dvdc/internal/service"
)

// runConfig is what one benchmark invocation measures.
type runConfig struct {
	seed    int64
	seconds float64 // the measured window
	// maxSeconds caps the window, which runs past seconds until every tail
	// the workload names has tailBeyond samples above it.
	maxSeconds float64
	setups     int    // set-ups timed for setup_s, after the window
	tmpDir     string // parent of the service's state dirs
}

// result is everything one measured segment records. Latencies are in
// milliseconds; counters are deltas over the measured window.
type result struct {
	setupS []float64

	attempted, failed int

	// Checkpoint rounds in the window (the bench's own timing).
	roundMS   []float64
	cpuMS     []float64 // process CPU time inside each round
	prepareMS []float64
	commitMS  []float64
	shipped   int64
	chunks    int64
	retries   int64

	nodes  runtime.NodeStats // protocol counters over the rounds
	pool   bufpool.Stats
	gc     gcSample
	memMB  float64
	checks int // shadow checks passed

	// Recovery cycles.
	recoveryMS, reprotectMS, repairMS, rebalanceMS, postRoundMS []float64

	// Service requests.
	requestMS, submitMS, schedMS, execMS, observeMS, lateMS []float64
	requests, reqRetries, rejected                          int
	fsyncs                                                  float64

	// Traced segments only.
	spans                                 int64
	rpcMS                                 map[string][]float64
	gap, gapWall                          time.Duration
	rollbackMS, restoreMaxMS, rehomeMaxMS []float64
}

// rounds is how many checkpoint rounds the window recorded.
func (r *result) rounds() int { return len(r.roundMS) }

// dirtyBytes is the dirty data the recorded rounds protected: raw delta
// bytes shipped plus the bytes the page-dedup cache proved unchanged.
func (r *result) dirtyBytes() int64 { return r.nodes.DeltaRawBytes + r.nodes.DedupSavedBytes }

func (r *result) addRound(wall, cpu time.Duration, st runtime.RoundStats) {
	r.roundMS = append(r.roundMS, ms(wall))
	r.cpuMS = append(r.cpuMS, ms(cpu))
	r.prepareMS = append(r.prepareMS, ms(st.PrepareWall))
	r.commitMS = append(r.commitMS, ms(st.CommitWall))
	r.shipped += st.BytesShipped
	r.chunks += st.ChunksShipped
	r.retries += st.RPCRetries
}

// runner drives one workload against one live cluster.
type runner struct {
	w     *workload
	cfg   runConfig
	c     *liveCluster
	spans *spanLog
	res   *result
	log   *opLog

	svc      *service.Service
	exec     *benchExec
	stateDir string

	layerBase struct {
		pool bufpool.Stats
		gc   gcSample
	}
}

// done reports whether a window that started at start may end: once the
// configured seconds have passed and the workload's tails have their
// samples; always at the cap.
func (r *runner) done(start time.Time, tailsReady bool) bool {
	el := time.Since(start).Seconds()
	switch {
	case el >= r.cfg.maxSeconds:
		return true
	case el < r.cfg.seconds:
		return false
	default:
		return tailsReady
	}
}

// beginLayers and endLayers bracket the window for process-wide counters.
// A traced run's span log restarts with the window too.
func (r *runner) beginLayers() {
	if r.spans != nil {
		r.spans.reset()
	}
	r.layerBase.pool = bufpool.Snapshot()
	r.layerBase.gc = readGC()
}

func (r *runner) endLayers() {
	p, g := bufpool.Snapshot(), readGC()
	b := r.layerBase
	r.res.pool = bufpool.Stats{Gets: p.Gets - b.pool.Gets, Misses: p.Misses - b.pool.Misses, Puts: p.Puts - b.pool.Puts, Oversize: p.Oversize - b.pool.Oversize}
	r.res.gc = gcSample{allocBytes: g.allocBytes - b.gc.allocBytes, gcCPU: g.gcCPU - b.gc.gcCPU, usedCPU: g.usedCPU - b.gc.usedCPU}
	if r.spans != nil {
		r.res.spans, r.res.rpcMS = r.spans.snapshot()
	}
}

// setUp brings up the workload's cluster (and service) from nothing.
func (r *runner) setUp() error {
	c, err := startCluster(r.w.spec, r.cfg.seed, r.spans)
	if err != nil {
		return err
	}
	r.c = c
	if !r.w.service {
		return nil
	}
	dir, err := os.MkdirTemp(r.cfg.tmpDir, "svc-")
	if err != nil {
		return err
	}
	r.stateDir = dir
	r.exec = &benchExec{r: r}
	svc, err := service.Open(r.exec, service.Options{StateDir: dir, Registry: c.reg})
	if err != nil {
		return fmt.Errorf("open service: %w", err)
	}
	r.svc = svc
	svc.Start()
	return nil
}

// stopService halts the reconciler (it must not race the final checks).
func (r *runner) stopService() {
	if r.svc != nil {
		r.svc.Stop()
		r.svc = nil
	}
}

// tearDown stops everything setUp started.
func (r *runner) tearDown() {
	r.stopService()
	if r.c != nil {
		r.c.close()
		r.c = nil
	}
	if r.stateDir != "" {
		os.RemoveAll(r.stateDir) //nolint:errcheck // scratch state of a finished run
		r.stateDir = ""
	}
}

// step runs n guest steps on every VM and logs them for the shadow.
func (r *runner) step(n uint64) error {
	if err := r.c.coord.Step(n); err != nil {
		return fmt.Errorf("step: %w", err)
	}
	r.log.step(n)
	return nil
}

// checkpoint runs one timed round under parent and logs its outcome. An
// aborted round is a counted failure the run survives (committed is false);
// a partial commit declares nodes dead and ends the run.
func (r *runner) checkpoint(parent obs.SpanContext) (committed bool, wall, cpu time.Duration, st runtime.RoundStats, err error) {
	c0, t0 := cpuTime(), time.Now()
	err = r.c.coord.CheckpointIn(parent)
	wall, cpu = time.Since(t0), cpuTime()-c0
	st = r.c.coord.RoundStats()
	r.res.attempted++
	var pce *runtime.PartialCommitError
	switch {
	case err == nil:
		r.log.commit()
	case errors.As(err, &pce):
		r.res.failed++
		r.log.commit()
		return false, wall, cpu, st, fmt.Errorf("checkpoint: %w", err)
	case st.Aborted:
		r.res.failed++
		r.log.abort()
		fmt.Fprintf(os.Stderr, "perfbench: round aborted: %v\n", err)
		return false, wall, cpu, st, nil
	default:
		return false, wall, cpu, st, fmt.Errorf("checkpoint: %w", err)
	}
	if r.spans != nil {
		if gap, w, ok := unattributed(r.spans.take(st.TraceID)); ok {
			r.res.gap += gap
			r.res.gapWall += w
		}
	}
	return true, wall, cpu, st, nil
}

// round is one closed-loop step plus recorded checkpoint.
func (r *runner) round(steps uint64) error {
	if err := r.step(steps); err != nil {
		return err
	}
	ok, wall, cpu, st, err := r.checkpoint(obs.SpanContext{})
	if ok {
		r.res.addRound(wall, cpu, st)
	}
	return err
}

// warmUp runs untimed rounds so connection pools, buffer pools and (with
// dedup) the page-hash cache are filled before the window opens.
func (r *runner) warmUp(rounds int, steps uint64) error {
	for i := 0; i < rounds; i++ {
		if err := r.step(steps); err != nil {
			return err
		}
		if _, _, _, _, err := r.checkpoint(obs.SpanContext{}); err != nil {
			return err
		}
	}
	return nil
}

// driveBulk is the bulk-uniform closed loop: Step then Checkpoint, back to
// back, with a shadow check every checkInterval rounds.
func driveBulk(r *runner) error {
	const checkInterval = 64
	p := r.w.params
	if err := r.warmUp(p.warmUp, p.steps); err != nil {
		return err
	}
	s0, err := r.c.nodeTotals()
	if err != nil {
		return err
	}
	r.beginLayers()
	need := minSamples(95)
	for start := time.Now(); !r.done(start, r.res.rounds() >= need); {
		if err := r.round(p.steps); err != nil {
			return err
		}
		if r.res.rounds()%checkInterval == 0 {
			if err := r.log.check(r.c); err != nil {
				return err
			}
		}
	}
	r.endLayers()
	s1, err := r.c.nodeTotals()
	if err != nil {
		return err
	}
	r.res.nodes = counterDelta(s1, s0)
	return nil
}

// driveRecover is the recover-rs2 cycle: a few rounds, lose two daemons,
// RecoverNodes, restart both on their addresses, Repair, Checkpoint,
// Rebalance. The failed pair rotates so every node takes part.
func driveRecover(r *runner) error {
	p := r.w.params
	if err := r.warmUp(p.warmUp, p.steps); err != nil {
		return err
	}
	n := len(r.c.nodes)
	base := int(uint64(r.cfg.seed) % uint64(n))
	r.beginLayers()
	needRec, needRounds := minSamples(90), minSamples(95)
	for cycle, start := 0, time.Now(); !r.done(start, len(r.res.recoveryMS) >= needRec && r.res.rounds() >= needRounds); cycle++ {
		s0, err := r.c.nodeTotals()
		if err != nil {
			return err
		}
		for k := 0; k < p.roundsPerCycle; k++ {
			if err := r.round(p.steps); err != nil {
				return err
			}
		}
		s1, err := r.c.nodeTotals()
		if err != nil {
			return err
		}
		addStats(&r.res.nodes, counterDelta(s1, s0), 1)
		a := (base + 2*cycle) % n
		if err := r.recoverPair(a, (a+1)%n); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	r.endLayers()
	return nil
}

// recoverPair runs one loss-and-reprotect cycle over nodes a and b and
// checks that no VM's committed state changed across it.
func (r *runner) recoverPair(a, b int) error {
	before, err := r.c.coord.VMStates()
	if err != nil {
		return err
	}
	r.c.nodes[a].Close()
	r.c.nodes[b].Close()

	r.res.attempted++
	t0 := time.Now()
	plan, err := r.c.coord.RecoverNodes(a, b)
	dRecover := time.Since(t0)
	if err != nil {
		r.res.failed++
		return fmt.Errorf("recover %d,%d: %w", a, b, err)
	}
	r.log.recovered(plan, r.c.coord.Epoch())
	after, err := r.c.coord.VMStates()
	if err != nil {
		return err
	}
	if err := sameStates(before, after, 0); err != nil {
		return fmt.Errorf("recovery of %d,%d changed committed state: %w", a, b, err)
	}
	if r.spans != nil {
		r.recoverySpans(r.spans.take(r.c.coord.RoundStats().RecoveryTraceID))
	}

	t1 := time.Now()
	for _, v := range []int{a, b} {
		if err := r.c.startNode(v, r.c.addrs[v]); err != nil {
			return err
		}
	}
	dRestart := time.Since(t1)
	t2 := time.Now()
	for _, v := range []int{a, b} {
		r.res.attempted++
		if err := r.c.coord.Repair(v); err != nil {
			r.res.failed++
			return fmt.Errorf("repair %d: %w", v, err)
		}
	}
	dRepair := time.Since(t2)
	ok, dPost, _, _, err := r.checkpoint(obs.SpanContext{})
	if err != nil {
		return fmt.Errorf("post-recovery round: %w", err)
	}
	if !ok {
		return fmt.Errorf("post-recovery round aborted")
	}
	r.res.attempted++
	t3 := time.Now()
	rb, err := r.c.coord.Rebalance()
	dRebalance := time.Since(t3)
	if err != nil {
		r.res.failed++
		return fmt.Errorf("rebalance: %w", err)
	}
	r.log.rebalanced(rb, r.c.coord.Epoch())

	r.res.recoveryMS = append(r.res.recoveryMS, ms(dRecover))
	r.res.repairMS = append(r.res.repairMS, ms(dRepair))
	r.res.postRoundMS = append(r.res.postRoundMS, ms(dPost))
	r.res.rebalanceMS = append(r.res.rebalanceMS, ms(dRebalance))
	r.res.reprotectMS = append(r.res.reprotectMS, ms(dRecover+dRestart+dRepair+dPost+dRebalance))

	if err := r.log.check(r.c); err != nil {
		return err
	}
	final := r.log.ops[len(r.log.ops)-1].states
	if err := sameStates(before, final, 1); err != nil {
		return fmt.Errorf("re-protection after losing %d,%d changed committed state: %w", a, b, err)
	}
	return nil
}

// recoverySpans records the recovery tree's stage walls: rollback, the
// slowest group restore, and the slowest parity re-home.
func (r *runner) recoverySpans(spans []obs.Span) {
	var rollback, restore, rehome float64
	for _, s := range spans {
		d := ms(s.Duration())
		switch {
		case s.Name == "rollback":
			rollback = max(rollback, d)
		case strings.HasPrefix(s.Name, "restore g"):
			restore = max(restore, d)
		case strings.HasPrefix(s.Name, "rehome g"):
			rehome = max(rehome, d)
		}
	}
	r.res.rollbackMS = append(r.res.rollbackMS, rollback)
	r.res.restoreMaxMS = append(r.res.restoreMaxMS, restore)
	r.res.rehomeMaxMS = append(r.res.rehomeMaxMS, rehome)
}

// benchExec is the service's executor: the reconciler calls it for every
// checkpoint request, and it times the Checkpoint call itself. It runs on
// the reconciler goroutine only; the runner reads what it recorded after
// the service has stopped.
type benchExec struct {
	r   *runner
	err error // first fatal round error
}

// ExecuteCheckpoint implements service.Executor.
func (e *benchExec) ExecuteCheckpoint(ctx obs.SpanContext, steps uint64) (uint64, error) {
	r := e.r
	if err := r.step(steps); err != nil {
		e.fail(err)
		return r.c.coord.Epoch(), err
	}
	ok, wall, cpu, st, err := r.checkpoint(ctx)
	if err != nil {
		e.fail(err)
	}
	if ok {
		r.res.addRound(wall, cpu, st)
	}
	if err == nil && !ok {
		err = fmt.Errorf("round aborted")
	}
	return r.c.coord.Epoch(), err
}

// ExecuteRestore implements service.Executor; the workload submits no
// restores.
func (e *benchExec) ExecuteRestore(obs.SpanContext, []int) (uint64, error) {
	err := fmt.Errorf("service-rewrite submits no restore requests")
	e.fail(err)
	return e.r.c.coord.Epoch(), err
}

// Quiesce implements the service's optional Quiescer.
func (e *benchExec) Quiesce() error { return e.r.c.coord.Quiesce() }

func (e *benchExec) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// requestDeadline is how long after it was due a request may take to reach
// Succeeded before it counts as failed: two hundred times the typical
// request latency.
const requestDeadline = 2 * time.Second

// submitted is one admitted request awaiting completion.
type submitted struct {
	id  string
	due time.Time
}

// driveService is the service-rewrite open loop: one goroutine submits
// checkpoint requests at a fixed rate, alternating two tenants, and one
// watcher observes each request reach a terminal phase. Latency runs from
// when a request was due, so a stalled submitter charges its lateness to
// the requests behind it.
func driveService(r *runner) error {
	p := r.w.params
	tenants := []string{"tenant-a", "tenant-b"}
	// The reconciler goroutine writes r.res while requests run; this
	// goroutine keeps its own tallies and merges them once the service has
	// stopped.
	var sub struct {
		attempted, failed, rejected int
		lateMS, submitMS            []float64
	}
	// Warm pools, connections and the page-hash cache with direct rounds:
	// the reconciler is idle until the first submission. The cache holds
	// most of each image only after ten or more rounds.
	if err := r.warmUp(p.warmUp, p.steps); err != nil {
		return err
	}
	s0, err := r.c.nodeTotals()
	if err != nil {
		return err
	}
	fsync0, _ := r.c.reg.Value("dvdc_service_journal_fsyncs_total")
	r.beginLayers()

	need := minSamples(95)
	if r.spans != nil {
		need = minSamples(99) // service.sched_wait_ms_p99
	}
	interval := time.Duration(float64(time.Second) / p.rate)
	maxReq := int(p.rate*r.cfg.maxSeconds) + 1
	// Buffered to the most requests a window can submit, so the submitter
	// never waits on the watcher.
	queue := make(chan submitted, maxReq)
	var wg sync.WaitGroup
	var watched watchStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		watched.watch(r.svc, queue)
	}()

	start := time.Now().Add(interval)
	accepted := 0
	for i := 0; i < maxReq && !r.done(start, accepted >= need); i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		t0 := time.Now()
		sub.lateMS = append(sub.lateMS, ms(t0.Sub(due)))
		req, err := r.svc.Submit(service.KindCheckpoint, service.Spec{Tenant: tenants[i%2], Steps: p.steps})
		t1 := time.Now()
		sub.attempted++
		var qe *service.QuotaError
		if errors.As(err, &qe) {
			sub.failed++
			sub.rejected++
			fmt.Fprintf(os.Stderr, "perfbench: request due %v after start rejected: %v\n", due.Sub(start).Round(time.Millisecond), err)
			continue
		}
		if err != nil {
			close(queue)
			wg.Wait()
			return fmt.Errorf("submit: %w", err)
		}
		sub.submitMS = append(sub.submitMS, ms(t1.Sub(t0)))
		accepted++
		queue <- submitted{id: req.ID, due: due}
	}
	close(queue)
	wg.Wait()
	// Stopping the service waits for the reconciler goroutine to exit, so
	// everything it recorded (even for a request the watcher gave up on) is
	// visible from here on.
	r.stopService()
	r.endLayers()
	if r.exec.err != nil {
		return r.exec.err
	}
	s1, err := r.c.nodeTotals()
	if err != nil {
		return err
	}
	r.res.nodes = counterDelta(s1, s0)
	fsync1, _ := r.c.reg.Value("dvdc_service_journal_fsyncs_total")
	r.res.fsyncs = fsync1 - fsync0

	r.res.attempted += sub.attempted
	r.res.failed += sub.failed + watched.failed
	r.res.rejected = sub.rejected
	r.res.lateMS = sub.lateMS
	r.res.submitMS = sub.submitMS
	r.res.requests = accepted
	r.res.reqRetries = watched.retries
	r.res.requestMS = watched.requestMS
	r.res.schedMS = watched.schedMS
	r.res.execMS = watched.execMS
	r.res.observeMS = watched.observeMS
	return nil
}

// watchStats is what the completion watcher records, owned by the watcher
// goroutine until it exits.
type watchStats struct {
	requestMS, schedMS, execMS, observeMS []float64
	failed, retries                       int
}

// watch waits for each queued request in submission order (the reconciler
// executes equal-priority requests in that order) and records its phase
// timings from the request's own conditions.
func (w *watchStats) watch(svc *service.Service, queue <-chan submitted) {
	for s := range queue {
		req, err := svc.WaitTerminal(s.id, time.Until(s.due.Add(requestDeadline)))
		seen := time.Now()
		if err != nil || req.Status.Phase != service.PhaseSucceeded {
			w.failed++
			msg := "not terminal"
			if req != nil {
				msg = fmt.Sprintf("phase %s: %s", req.Status.Phase, req.Status.Message)
			}
			fmt.Fprintf(os.Stderr, "perfbench: request %s failed: %s %v\n", s.id, msg, err)
			continue
		}
		execAt, doneAt := conditionAt(req, service.CondExecuting), conditionAt(req, service.CondComplete)
		w.requestMS = append(w.requestMS, ms(seen.Sub(s.due)))
		w.schedMS = append(w.schedMS, ms(execAt.Sub(req.Created)))
		w.execMS = append(w.execMS, ms(doneAt.Sub(execAt)))
		w.observeMS = append(w.observeMS, ms(seen.Sub(doneAt)))
		w.retries += req.Status.Retries
	}
}

// conditionAt is when the request's condition of type t was last set.
func conditionAt(req *service.Request, t string) time.Time {
	for _, c := range req.Status.Conditions {
		if c.Type == t {
			return c.At
		}
	}
	return time.Time{}
}
