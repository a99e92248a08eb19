package core

import "k23/internal/kernel"

// Checkpoint support for K23's online phase: the interposer state (with
// its robin-hood site set — the exact slot layout is guard state), the
// startup ptracer's accumulated handoff counters, and the offline
// phase's stateless preload guard all implement kernel.HostState.

// SnapshotHostState implements kernel.HostState.
func (st *state) SnapshotHostState() any {
	s := *st
	if st.sites != nil {
		s.sites = st.sites.Clone()
	}
	return &s
}

// RestoreHostState implements kernel.HostState.
func (st *state) RestoreHostState(v any) {
	*st = *v.(*state)
	if st.sites != nil {
		st.sites = st.sites.Clone()
	}
}

var _ kernel.HostState = (*state)(nil)

// SnapshotHostState implements kernel.HostState: the startup ptracer's
// mutable state is its process and accumulated handoff count.
func (tr *k23Tracer) SnapshotHostState() any {
	s := *tr
	return &s
}

// RestoreHostState implements kernel.HostState.
func (tr *k23Tracer) RestoreHostState(v any) {
	*tr = *v.(*k23Tracer)
}

var _ kernel.HostState = (*k23Tracer)(nil)

// SnapshotHostState implements kernel.HostState (the guard is
// stateless: it only rewrites execve environments).
func (g *preloadGuard) SnapshotHostState() any { return nil }

// RestoreHostState implements kernel.HostState.
func (g *preloadGuard) RestoreHostState(any) {}

var _ kernel.HostState = (*preloadGuard)(nil)
