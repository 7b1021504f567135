package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/parity"
	"dvdc/internal/service"
	"dvdc/internal/service/journal"
	"dvdc/internal/transport"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// kernelBudget is how long each replayed kernel is timed.
const kernelBudget = 250 * time.Millisecond

// kernelSizes are the shapes the replays run at, taken from the traced
// window's own counters so a kernel is timed at the sizes the workload fed
// it.
type kernelSizes struct {
	pages, pageSize int
	dirtyPages      int // distinct dirty pages per VM per round
	groupSize       int
	tolerance       int
	batchBytes      int // bytes per delta-chunk RPC
}

// kernels are the replayed per-module numbers; zero where the workload
// does not run the kernel.
type kernels struct {
	captureGBs, drainGBs, xorGBs        float64
	encodeGBs, decodeGBs, loopbackGBs   float64
	pageHashGBs                         float64
	rs2ReconstructMS, rs2ReconstructGBs float64
	planRecoveryUS, journalAppendSyncUS float64
}

// timed runs fn until budget has been spent timing it (at least minReps
// times) and returns the bytes it reports per nanosecond (GB/s) plus the
// per-call durations.
func timed(minReps int, fn func() (bytes int64, d time.Duration, err error)) (float64, []time.Duration, error) {
	var bytes int64
	var total time.Duration
	var each []time.Duration
	for len(each) < minReps || total < kernelBudget {
		b, d, err := fn()
		if err != nil {
			return 0, nil, err
		}
		bytes += b
		total += d
		each = append(each, d)
	}
	return float64(bytes) / float64(total.Nanoseconds()), each, nil
}

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// replayKernels times each module's public kernels at the workload's
// sizes.
func replayKernels(w *workload, sz kernelSizes, seed int64, tmpDir string) (kernels, error) {
	var k kernels
	var err error
	rng := rand.New(rand.NewSource(seed))
	image := sz.pages * sz.pageSize

	if k.captureGBs, err = replayCapture(sz, rng); err != nil {
		return k, fmt.Errorf("capture: %w", err)
	}
	if k.drainGBs, err = replayDrain(sz, rng); err != nil {
		return k, fmt.Errorf("drain: %w", err)
	}
	if k.xorGBs, err = replayXOR(image); err != nil {
		return k, fmt.Errorf("xor: %w", err)
	}
	if k.encodeGBs, k.decodeGBs, err = replayWire(sz); err != nil {
		return k, fmt.Errorf("wire: %w", err)
	}
	if k.loopbackGBs, err = replayLoopback(sz.batchBytes); err != nil {
		return k, fmt.Errorf("loopback: %w", err)
	}
	if w.spec.dedup {
		if k.pageHashGBs, err = replayPageHash(sz); err != nil {
			return k, fmt.Errorf("page hash: %w", err)
		}
	}
	if sz.tolerance >= 2 {
		if k.rs2ReconstructMS, k.rs2ReconstructGBs, err = replayRS2(sz, rng); err != nil {
			return k, fmt.Errorf("rs2: %w", err)
		}
		if k.planRecoveryUS, err = replayPlanRecovery(w.spec); err != nil {
			return k, fmt.Errorf("plan recovery: %w", err)
		}
	}
	if w.service {
		if k.journalAppendSyncUS, err = replayJournal(tmpDir); err != nil {
			return k, fmt.Errorf("journal: %w", err)
		}
	}
	return k, nil
}

// dirtyTo dirties distinct pages of m until n are dirty.
func dirtyTo(m *vm.Machine, n int, rng *rand.Rand, stamp *uint64) {
	n = min(n, m.NumPages())
	for m.DirtyCount() < n {
		*stamp++
		m.TouchPage(rng.Intn(m.NumPages()), *stamp)
	}
}

// replayCapture times core.Member.CaptureDeltaInto with pooled buffers at
// the workload's dirty pages per VM per round.
func replayCapture(sz kernelSizes, rng *rand.Rand) (float64, error) {
	m, err := vm.NewMachine("replay", sz.pages, sz.pageSize)
	if err != nil {
		return 0, err
	}
	mem, err := core.NewMember(m)
	if err != nil {
		return 0, err
	}
	var stamp uint64
	gbs, _, err := timed(5, func() (int64, time.Duration, error) {
		dirtyTo(m, sz.dirtyPages, rng, &stamp)
		t0 := time.Now()
		d, err := mem.CaptureDeltaInto(bufpool.Get)
		dt := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		for _, p := range d.Pages {
			bufpool.Put(p.Data)
		}
		return d.PayloadBytes(), dt, nil
	})
	return gbs, err
}

// dirtyRanges picks n distinct random pages and returns them coalesced into
// sorted byte ranges.
func dirtyRanges(pages, pageSize, n int, rng *rand.Rand) [][2]int {
	n = min(n, pages)
	idx := rng.Perm(pages)[:n]
	sort.Ints(idx)
	var out [][2]int
	for _, p := range idx {
		lo := p * pageSize
		if k := len(out); k > 0 && out[k-1][1] == lo {
			out[k-1][1] += pageSize
			continue
		}
		out = append(out, [2]int{lo, lo + pageSize})
	}
	return out
}

// replayDrain times core.MKeeper.DrainPendingRanges over the ranges one
// keeper commits per round: its group's dirty pages.
func replayDrain(sz kernelSizes, rng *rand.Rand) (float64, error) {
	image := sz.pages * sz.pageSize
	initial := map[string][]byte{}
	for j := 0; j < sz.groupSize; j++ {
		initial[fmt.Sprintf("vm-%d", j)] = make([]byte, image)
	}
	k, err := core.NewMKeeper(0, 0, sz.tolerance, initial)
	if err != nil {
		return 0, err
	}
	pending := make([]byte, image)
	gbs, _, err := timed(5, func() (int64, time.Duration, error) {
		ranges := dirtyRanges(sz.pages, sz.pageSize, sz.groupSize*sz.dirtyPages, rng)
		var n int64
		for _, r := range ranges {
			b := pending[r[0]:r[1]]
			for i := range b {
				b[i] = byte(i)
			}
			n += int64(len(b))
		}
		t0 := time.Now()
		err := k.DrainPendingRanges(pending, nil, ranges)
		return n, time.Since(t0), err
	})
	return gbs, err
}

// replayXOR times parity.XORInto and parity.XORDrain at chunk and image
// size.
func replayXOR(image int) (float64, error) {
	chunk := min(wire.DefaultChunkSize, image)
	dst, src := make([]byte, image), make([]byte, image)
	gbs, _, err := timed(5, func() (int64, time.Duration, error) {
		t0 := time.Now()
		for _, n := range []int{chunk, image} {
			if err := parity.XORInto(dst[:n], src[:n]); err != nil {
				return 0, 0, err
			}
			if err := parity.XORDrain(dst[:n], src[:n]); err != nil {
				return 0, 0, err
			}
		}
		return int64(2 * (chunk + image)), time.Since(t0), nil
	})
	return gbs, err
}

// replayWire times wire.FrameWriter.AppendChunkScatter over one VM-round of
// dirty pages cut into default-size chunks, and wire.DecodeChunkPrefix
// (DecodeChunk with its CRC check) over the encoded stream.
func replayWire(sz kernelSizes) (enc, dec float64, err error) {
	perChunk := max(1, wire.DefaultChunkSize/sz.pageSize)
	pages := make([][]byte, max(1, sz.dirtyPages))
	for i := range pages {
		pages[i] = make([]byte, sz.pageSize)
		for j := range pages[i] {
			pages[i][j] = byte(i + j)
		}
	}
	chunks := (len(pages) + perChunk - 1) / perChunk
	appendAll := func(fw *wire.FrameWriter) {
		for i := 0; i < chunks; i++ {
			data := pages[i*perChunk : min(len(pages), (i+1)*perChunk)]
			c := wire.Chunk{
				Offset: uint64(i * perChunk * sz.pageSize),
				Total:  uint64(len(pages) * sz.pageSize),
				Index:  uint32(i),
				Count:  uint32(chunks),
				RawLen: uint32(len(data) * sz.pageSize),
			}
			fw.AppendChunkScatter(&c, data)
		}
	}
	enc, _, err = timed(5, func() (int64, time.Duration, error) {
		fw := wire.FrameWriter{Alloc: bufpool.Get}
		t0 := time.Now()
		appendAll(&fw)
		dt := time.Since(t0)
		fw.Release(bufpool.Put)
		return int64(len(pages) * sz.pageSize), dt, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var fw wire.FrameWriter
	appendAll(&fw)
	stream := fw.Bytes()
	dec, _, err = timed(5, func() (int64, time.Duration, error) {
		var n int64
		t0 := time.Now()
		for b := stream; len(b) > 0; {
			c, used, err := wire.DecodeChunkPrefix(b)
			if err != nil {
				return 0, 0, err
			}
			n += int64(len(c.Data))
			b = b[used:]
		}
		return n, time.Since(t0), nil
	})
	return enc, dec, err
}

// replayLoopback times transport.Conn.Call of a delta-chunk-batch-sized
// frame against a transport.Listen server that acknowledges it.
func replayLoopback(batch int) (float64, error) {
	srv, err := transport.Listen("127.0.0.1:0", func(*wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgDeltaChunkOK}, nil
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	msg := &wire.Message{Type: wire.MsgDeltaChunk, VM: "replay", Payload: make([]byte, batch)}
	gbs, _, err := timed(20, func() (int64, time.Duration, error) {
		t0 := time.Now()
		_, err := conn.Call(msg)
		return int64(batch), time.Since(t0), err
	})
	return gbs, err
}

// hashSink keeps the page-hash replay's results live.
var hashSink uint64

// replayPageHash times vm.Machine.PageHash over a whole image.
func replayPageHash(sz kernelSizes) (float64, error) {
	m, err := vm.NewMachine("replay", sz.pages, sz.pageSize)
	if err != nil {
		return 0, err
	}
	gbs, _, err := timed(5, func() (int64, time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < sz.pages; i++ {
			hashSink ^= m.PageHash(i)
		}
		return int64(sz.pages * sz.pageSize), time.Since(t0), nil
	})
	return gbs, err
}

// replayRS2 times core.ReconstructMembers and parity.RS.Reconstruct for a
// group that lost two members.
func replayRS2(sz kernelSizes, rng *rand.Rand) (reconstructMS, gbs float64, err error) {
	image := sz.pages * sz.pageSize
	coder, err := parity.NewRS(sz.groupSize, sz.tolerance)
	if err != nil {
		return 0, 0, err
	}
	data := make([][]byte, sz.groupSize)
	members := make([]string, sz.groupSize)
	for j := range data {
		data[j] = make([]byte, image)
		rng.Read(data[j])
		members[j] = fmt.Sprintf("vm-%d", j)
	}
	par, err := coder.Encode(data)
	if err != nil {
		return 0, 0, err
	}
	lost := members[:2]
	survivors := map[string][]byte{}
	for j := 2; j < sz.groupSize; j++ {
		survivors[members[j]] = data[j]
	}
	blocks := map[int][]byte{}
	for i, p := range par {
		blocks[i] = p
	}
	_, each, err := timed(3, func() (int64, time.Duration, error) {
		t0 := time.Now()
		_, err := core.ReconstructMembers(sz.tolerance, members, survivors, blocks, lost)
		return int64(2 * image), time.Since(t0), err
	})
	if err != nil {
		return 0, 0, err
	}
	gbs, _, err = timed(3, func() (int64, time.Duration, error) {
		shards := make([][]byte, 0, sz.groupSize+sz.tolerance)
		shards = append(shards, nil, nil)
		for j := 2; j < sz.groupSize; j++ {
			shards = append(shards, append([]byte(nil), data[j]...))
		}
		for _, p := range par {
			shards = append(shards, append([]byte(nil), p...))
		}
		t0 := time.Now()
		err := coder.Reconstruct(shards)
		return int64(2 * image), time.Since(t0), err
	})
	return ms(medianDur(each)), gbs, err
}

// replayPlanRecovery times cluster.Layout.PlanRecovery for every adjacent
// pair of nodes of the workload's layout.
func replayPlanRecovery(spec clusterSpec) (float64, error) {
	layout, err := spec.layout()
	if err != nil {
		return 0, err
	}
	i := 0
	_, each, err := timed(50, func() (int64, time.Duration, error) {
		a := i % layout.Nodes
		i++
		t0 := time.Now()
		_, err := layout.PlanRecovery(a, (a+1)%layout.Nodes)
		return 0, time.Since(t0), err
	})
	if err != nil {
		return 0, err
	}
	return float64(medianDur(each)) / float64(time.Microsecond), nil
}

// replayJournal times journal.Writer Append plus Sync of a request-sized
// record in a scratch directory on the same file system as the service's
// state dir.
func replayJournal(tmpDir string) (float64, error) {
	dir, err := os.MkdirTemp(tmpDir, "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, _, _, err := journal.Recover(filepath.Join(dir, "journal.log"), journal.Options{})
	if err != nil {
		return 0, err
	}
	now := time.Now()
	req := service.Request{
		APIVersion: service.APIVersion, Kind: service.KindCheckpoint, ID: "cr-1000", Generation: 1, Created: now,
		Spec: service.Spec{Tenant: "tenant-a", Steps: 64},
		Status: service.Status{Phase: service.PhaseSucceeded, ObservedGeneration: 1, Epoch: 1000, Conditions: []service.Condition{
			{Type: service.CondAdmitted, Status: true, Reason: "Admitted", At: now},
			{Type: service.CondScheduled, Status: true, Reason: "Queued", At: now},
			{Type: service.CondExecuting, Status: true, Reason: "Attempt", Message: "attempt 1 of 4", At: now},
			{Type: service.CondComplete, Status: true, Reason: "Succeeded", At: now},
		}},
	}
	payload, err := json.Marshal(req)
	if err != nil {
		w.Close()
		return 0, err
	}
	_, each, err := timed(20, func() (int64, time.Duration, error) {
		t0 := time.Now()
		if err := w.Append(payload); err != nil {
			return 0, 0, err
		}
		err := w.Sync()
		return int64(len(payload)), time.Since(t0), err
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return float64(medianDur(each)) / float64(time.Microsecond), nil
}
