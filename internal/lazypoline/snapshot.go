package lazypoline

import (
	"maps"

	"k23/internal/kernel"
)

// Checkpoint support: lazypoline's per-process state implements
// kernel.HostState. The rewritten map is the lazily-discovered site set
// — semantic state that decides which addresses bypass SUD — and is
// deep-copied; the ground-truth map is never written after init, so
// snapshots share it.

// SnapshotHostState implements kernel.HostState.
func (st *state) SnapshotHostState() any {
	s := *st
	s.rewritten = maps.Clone(st.rewritten)
	return &s
}

// RestoreHostState implements kernel.HostState.
func (st *state) RestoreHostState(v any) {
	*st = *v.(*state)
	st.rewritten = maps.Clone(st.rewritten)
}

var _ kernel.HostState = (*state)(nil)
