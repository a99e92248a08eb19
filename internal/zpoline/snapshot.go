package zpoline

import (
	"maps"

	"k23/internal/kernel"
)

// Checkpoint support: zpoline's per-process state implements
// kernel.HostState. The rewritten-site map is semantic state (it decides
// which addresses the interposer claims) and the bitmap is the P4b guard
// structure; both are deep-copied. The ground-truth map is never written
// after init, so snapshots share it.

// SnapshotHostState implements kernel.HostState.
func (st *state) SnapshotHostState() any {
	s := *st
	s.sites = maps.Clone(st.sites)
	if st.bitmap != nil {
		s.bitmap = st.bitmap.clone()
	}
	return &s
}

// RestoreHostState implements kernel.HostState.
func (st *state) RestoreHostState(v any) {
	*st = *v.(*state)
	st.sites = maps.Clone(st.sites)
	if st.bitmap != nil {
		st.bitmap = st.bitmap.clone()
	}
}

var _ kernel.HostState = (*state)(nil)

// clone deep-copies the bitmap.
func (b *Bitmap) clone() *Bitmap {
	return &Bitmap{words: maps.Clone(b.words), resident: maps.Clone(b.resident)}
}
