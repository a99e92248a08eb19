package loader

import (
	"slices"

	"k23/internal/kernel"
)

// Checkpoint support: the loader's per-process bookkeeping implements
// kernel.HostState so whole-world snapshots capture it. LoadedImage
// records are immutable once mapped, so a snapshot is a value copy
// that shares them and clones only the link-map slice around them.

// SnapshotHostState implements kernel.HostState.
func (st *procState) SnapshotHostState() any {
	s := *st
	s.loaded = slices.Clone(st.loaded)
	return &s
}

// RestoreHostState implements kernel.HostState. The snapshot is never
// mutated, so one snapshot can seed any number of restores.
func (st *procState) RestoreHostState(v any) {
	*st = *v.(*procState)
	st.loaded = slices.Clone(st.loaded)
}

var _ kernel.HostState = (*procState)(nil)
