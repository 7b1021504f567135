package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
	"dvdc/internal/runtime"
)

// clusterSpec is the shape of one workload's loopback cluster.
type clusterSpec struct {
	layout   func() (*cluster.Layout, error)
	pages    int
	pageSize int
	kind     string // runtime workload kind every VM runs
	dedup    bool
}

// liveCluster is a coordinator plus its node daemons, all in this process
// and talking over loopback TCP. With a spanLog it is traced: the
// coordinator and every node get their own tracer and registry, as each
// process of a deployed cluster would.
type liveCluster struct {
	nodes  []*runtime.Node
	addrs  map[int]string
	coord  *runtime.Coordinator
	spans  *spanLog // nil when untraced
	reg    *obs.Registry
	nodeTr []*obs.Tracer
	nodeRg []*obs.Registry
}

// startCluster starts every node daemon, wires a coordinator seeded with
// seed, and pushes the initial configuration.
func startCluster(spec clusterSpec, seed int64, spans *spanLog) (*liveCluster, error) {
	layout, err := spec.layout()
	if err != nil {
		return nil, err
	}
	c := &liveCluster{
		nodes: make([]*runtime.Node, layout.Nodes),
		addrs: map[int]string{},
		spans: spans,
	}
	if spans != nil {
		c.reg = obs.NewRegistry()
		for i := 0; i < layout.Nodes; i++ {
			c.nodeTr = append(c.nodeTr, spans.tracer())
			c.nodeRg = append(c.nodeRg, obs.NewRegistry())
		}
	}
	for i := 0; i < layout.Nodes; i++ {
		if err := c.startNode(i, "127.0.0.1:0"); err != nil {
			c.close()
			return nil, err
		}
	}
	coord, err := runtime.NewCoordinator(layout, c.addrs, spec.pages, spec.pageSize, seed)
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	coord.SetWorkload(spec.kind)
	coord.SetDedup(spec.dedup)
	if spans != nil {
		coord.SetObserver(spans.tracer(), c.reg)
	}
	if err := coord.Setup(); err != nil {
		c.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	return c, nil
}

// startNode (re)starts node i's daemon on addr.
func (c *liveCluster) startNode(i int, addr string) error {
	var n *runtime.Node
	var err error
	if c.spans == nil {
		n, err = runtime.NewNode(addr)
	} else {
		n, err = runtime.NewNodeWith(addr, runtime.NodeOptions{Tracer: c.nodeTr[i], Registry: c.nodeRg[i]})
	}
	if err != nil {
		return fmt.Errorf("start node %d on %s: %w", i, addr, err)
	}
	c.nodes[i] = n
	c.addrs[i] = n.Addr()
	return nil
}

// close stops the coordinator's connections and every daemon.
func (c *liveCluster) close() {
	if c.coord != nil {
		c.coord.Close()
	}
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// nodeTotals sums the protocol counters of every node.
func (c *liveCluster) nodeTotals() (runtime.NodeStats, error) {
	var sum runtime.NodeStats
	for n := range c.nodes {
		st, err := c.coord.NodeStats(n)
		if err != nil {
			return sum, fmt.Errorf("stats of node %d: %w", n, err)
		}
		addStats(&sum, st, 1)
	}
	return sum, nil
}

// counterDelta is after minus before for the counters the benchmark reads.
func counterDelta(after, before runtime.NodeStats) runtime.NodeStats {
	var d runtime.NodeStats
	addStats(&d, after, 1)
	addStats(&d, before, -1)
	return d
}

// addStats adds sign times d to acc for the counters the benchmark reads.
func addStats(acc *runtime.NodeStats, d runtime.NodeStats, sign int64) {
	acc.DeltaRawBytes += sign * d.DeltaRawBytes
	acc.DeltaWireBytes += sign * d.DeltaWireBytes
	acc.ChunksReceived += sign * d.ChunksReceived
	acc.DupChunks += sign * d.DupChunks
	acc.FoldNanos += sign * d.FoldNanos
	acc.DedupHits += sign * d.DedupHits
	acc.DedupMisses += sign * d.DedupMisses
	acc.DedupSavedBytes += sign * d.DedupSavedBytes
}

// spanLog gathers every span the traced cluster's tracers finish, through
// each tracer's tap, so nothing depends on ring sizes. Round and recovery
// traces are taken out by id right after the call that made them; rpc span
// durations are kept by message name.
type spanLog struct {
	mu      sync.Mutex
	byTrace map[uint64][]obs.Span
	rpcMS   map[string][]float64
	count   int64
}

func newSpanLog() *spanLog {
	return &spanLog{byTrace: map[uint64][]obs.Span{}, rpcMS: map[string][]float64{}}
}

// tracer builds a tracer whose finished spans land in the log. The ring is
// kept small: the tap, not the ring, is the record.
func (l *spanLog) tracer() *obs.Tracer {
	tr := obs.NewTracer(256)
	tr.SetTap(l.add)
	return tr
}

func (l *spanLog) add(s obs.Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	if msg, ok := strings.CutPrefix(s.Name, "rpc "); ok {
		l.rpcMS[msg] = append(l.rpcMS[msg], ms(s.Duration()))
	}
	if s.Trace != 0 {
		l.byTrace[s.Trace] = append(l.byTrace[s.Trace], s)
	}
}

// take removes and returns one trace's spans.
func (l *spanLog) take(trace uint64) []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.byTrace[trace]
	delete(l.byTrace, trace)
	return s
}

// reset forgets everything recorded so far.
func (l *spanLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byTrace = map[uint64][]obs.Span{}
	l.rpcMS = map[string][]float64{}
	l.count = 0
}

// snapshot returns the span count and a copy of the rpc durations.
func (l *spanLog) snapshot() (int64, map[string][]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]float64, len(l.rpcMS))
	for k, v := range l.rpcMS {
		out[k] = append([]float64(nil), v...)
	}
	return l.count, out
}

// subtree re-roots spans at the first span named root: that span (with its
// parent link cut) and all its descendants. A round the service drives
// hangs under the reconcile span, which is still open when the round ends.
func subtree(spans []obs.Span, root string) []obs.Span {
	kids := map[uint64][]int{}
	top := -1
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
		if top < 0 && s.Name == root {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	r := spans[top]
	r.Parent = 0
	out := []obs.Span{r}
	queue := []uint64{r.ID}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, i := range kids[id] {
			out = append(out, spans[i])
			queue = append(queue, spans[i].ID)
		}
	}
	return out
}

// unattributed is the part of a round's wall time that no span on its
// critical path explains: the self time of every non-leaf step of the
// path, i.e. time a span spent between or beside its children. Leaf steps
// are layers doing work and count as attributed.
func unattributed(spans []obs.Span) (gap, wall time.Duration, ok bool) {
	t := collect.BuildTree(subtree(spans, "round"))
	if t.Verify() != nil {
		return 0, 0, false
	}
	a := collect.Attribute(t)
	if a == nil {
		return 0, 0, false
	}
	for i, st := range a.Path {
		if i < len(a.Path)-1 {
			gap += st.Self
		}
	}
	return gap, a.Wall, true
}
