package ptracer

import "k23/internal/kernel"

// Checkpoint support. The ptracer's mutable state is the stats value in
// the state struct attached as Process.Interposer, so snapshot and
// restore are value copies; the tracer adapter itself is a stateless
// pair of pointers into it, so its snapshot carries nothing (the kernel
// snapshots Interposer and tracer independently, and both resolve to the
// same state object).

// SnapshotHostState implements kernel.HostState.
func (st *state) SnapshotHostState() any {
	s := *st
	return &s
}

// RestoreHostState implements kernel.HostState.
func (st *state) RestoreHostState(v any) {
	*st = *(v.(*state))
}

var _ kernel.HostState = (*state)(nil)

// SnapshotHostState implements kernel.HostState (stateless adapter).
func (tr *tracer) SnapshotHostState() any { return nil }

// RestoreHostState implements kernel.HostState.
func (tr *tracer) RestoreHostState(any) {}

var _ kernel.HostState = (*tracer)(nil)
