package main

import (
	"fmt"
	"sort"

	"dvdc/internal/cluster"
	"dvdc/internal/runtime"
)

// opKind is one lifecycle operation the shadow model mirrors.
type opKind int

const (
	opStep opKind = iota
	opCommit
	opAbort
	opRecover
	opRebalance
	opCheck
)

// op is one logged operation. A check carries the committed state the
// cluster reported at that point of the sequence.
type op struct {
	kind   opKind
	steps  uint64
	plan   *cluster.Plan
	epoch  uint64
	states map[string]runtime.VMState
}

// opLog records the exact Step/Commit/Recover/Rebalance sequence a run drove
// plus the VMStates observed along it. Replaying it into runtime's shadow
// model after the measured window is the benchmark's correctness gate: the
// shadow runs the same seeded guest code, so every committed image must
// match it bit for bit.
type opLog struct {
	ops []op
}

func (l *opLog) step(n uint64) { l.ops = append(l.ops, op{kind: opStep, steps: n}) }
func (l *opLog) commit()       { l.ops = append(l.ops, op{kind: opCommit}) }
func (l *opLog) abort()        { l.ops = append(l.ops, op{kind: opAbort}) }

func (l *opLog) recovered(plan *cluster.Plan, epoch uint64) {
	l.ops = append(l.ops, op{kind: opRecover, plan: plan, epoch: epoch})
}

func (l *opLog) rebalanced(plan *cluster.Plan, epoch uint64) {
	l.ops = append(l.ops, op{kind: opRebalance, plan: plan, epoch: epoch})
}

// check fetches the cluster's committed state and logs it for comparison.
func (l *opLog) check(c *liveCluster) error {
	states, err := c.coord.VMStates()
	if err != nil {
		return fmt.Errorf("fetch VM states: %w", err)
	}
	l.ops = append(l.ops, op{kind: opCheck, states: states, epoch: c.coord.Epoch()})
	return nil
}

// replay runs the logged sequence through a fresh shadow and compares every
// logged check against it, returning how many checks passed.
func (l *opLog) replay(spec clusterSpec, seed int64) (int, error) {
	layout, err := spec.layout()
	if err != nil {
		return 0, err
	}
	sh, err := runtime.NewShadowWith(layout, spec.pages, spec.pageSize, seed, spec.kind)
	if err != nil {
		return 0, err
	}
	checks := 0
	for i, o := range l.ops {
		switch o.kind {
		case opStep:
			sh.Step(o.steps)
		case opCommit:
			sh.Commit()
		case opAbort:
			sh.Abort()
		case opRecover:
			err = sh.Recover(o.plan, o.epoch)
		case opRebalance:
			err = sh.Rebalance(o.plan, o.epoch)
		case opCheck:
			err = compareStates(o.states, sh.Checksums(), o.epoch, sh.Epoch())
			checks++
		}
		if err != nil {
			return checks, fmt.Errorf("op %d of %d: %w", i+1, len(l.ops), err)
		}
	}
	return checks, nil
}

// compareStates checks a cluster's reported committed state against the
// shadow's checksums and epoch.
func compareStates(got map[string]runtime.VMState, want map[string]uint64, coordEpoch, shadowEpoch uint64) error {
	if coordEpoch != shadowEpoch {
		return fmt.Errorf("coordinator at epoch %d, shadow at %d", coordEpoch, shadowEpoch)
	}
	if len(got) != len(want) {
		return fmt.Errorf("cluster reports %d VMs, shadow models %d", len(got), len(want))
	}
	for _, name := range sortedNames(got) {
		st := got[name]
		if st.Checksum != want[name] {
			return fmt.Errorf("VM %s committed checksum %016x, shadow %016x", name, st.Checksum, want[name])
		}
		if st.Epoch != shadowEpoch {
			return fmt.Errorf("VM %s at epoch %d, shadow at %d", name, st.Epoch, shadowEpoch)
		}
	}
	return nil
}

// sameStates checks that every VM kept its committed checksum across an
// operation and that its epoch moved by exactly shift (a recovery must not
// change committed state; re-protection adds one empty round).
func sameStates(before, after map[string]runtime.VMState, shift uint64) error {
	if len(before) != len(after) {
		return fmt.Errorf("%d VMs before, %d after", len(before), len(after))
	}
	for _, name := range sortedNames(before) {
		b, a := before[name], after[name]
		if a.Checksum != b.Checksum || a.Epoch != b.Epoch+shift {
			return fmt.Errorf("VM %s committed state %016x@%d before, %016x@%d after", name, b.Checksum, b.Epoch, a.Checksum, a.Epoch)
		}
	}
	return nil
}

func sortedNames(m map[string]runtime.VMState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
