package mem

// Checkpoint support: an AddressSpace can be snapshotted into an
// ASState and later restored from it, in place. Snapshots are
// dirty-page deltas against a previous snapshot: the genClock is
// monotone across the whole address space and a page's gen changes on
// every store, mprotect and remap, so "same gen" means "same bytes,
// same permission" — an unchanged page's 4 KiB copy is shared with the
// previous snapshot instead of re-copied. Restore always copies data
// back into fresh page structs, so one ASState can seed any number of
// restores and snapshot chains never alias live memory.

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// PageState is the snapshot of one mapped page. Data is shared between
// consecutive snapshots when the page generation is unchanged; it is
// never aliased by a live AddressSpace.
type PageState struct {
	Perm Perm
	Pkey int
	Gen  uint64
	Data *[PageSize]byte
}

// ASState is a point-in-time snapshot of an AddressSpace.
type ASState struct {
	Pages    map[uint64]PageState // page number -> page snapshot
	Regions  []Region
	GenClock uint64

	// Copied and Shared count pages deep-copied into this snapshot vs
	// shared with the previous one (the delta-checkpoint space metric).
	Copied int
	Shared int
}

// SnapshotState captures the address space. prev, if non-nil, is an
// earlier snapshot of the same address space: pages whose generation is
// unchanged share prev's data copy instead of being re-copied.
func (a *AddressSpace) SnapshotState(prev *ASState) *ASState {
	s := &ASState{
		Pages:    make(map[uint64]PageState, len(a.pages)),
		Regions:  append([]Region(nil), a.regions...),
		GenClock: a.genClock,
	}
	for pn, pg := range a.pages {
		ps := PageState{Perm: pg.perm, Pkey: pg.pkey, Gen: pg.gen}
		if prev != nil {
			if old, ok := prev.Pages[pn]; ok && old.Gen == pg.gen {
				ps.Data = old.Data
				s.Shared++
				s.Pages[pn] = ps
				continue
			}
		}
		data := pg.data
		ps.Data = &data
		s.Copied++
		s.Pages[pn] = ps
	}
	return s
}

// RestoreState rewinds the address space to the snapshot, in place: the
// AddressSpace object keeps its identity (cores and host closures that
// hold the pointer stay valid) while its page table, regions and
// genClock are replaced by copies of the snapshot's.
func (a *AddressSpace) RestoreState(s *ASState) {
	a.lastPage = nil
	a.pages = make(map[uint64]*page, len(s.Pages))
	for pn, ps := range s.Pages {
		pg := &page{perm: ps.Perm, pkey: ps.Pkey, gen: ps.Gen}
		pg.data = *ps.Data
		a.pages[pn] = pg
	}
	a.regions = append([]Region(nil), s.Regions...)
	a.genClock = s.GenClock
}

// StateHash returns a deterministic FNV-1a hash of the full address
// space state — every page's number, permission, pkey, generation and
// bytes (in sorted page order) plus the region table and generation
// clock. The checkpoint property tests compare it across
// Checkpoint/mutate/Restore cycles.
func (a *AddressSpace) StateHash() uint64 {
	h := fnv.New64a()
	pns := make([]uint64, 0, len(a.pages))
	for pn := range a.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		pg := a.pages[pn]
		fmt.Fprintf(h, "p %d %d %d %d ", pn, pg.perm, pg.pkey, pg.gen)
		h.Write(pg.data[:])
		h.Write([]byte{'\n'})
	}
	for _, r := range a.regions {
		fmt.Fprintf(h, "r %#x %#x %s %q\n", r.Start, r.End, r.Perm, r.Name)
	}
	fmt.Fprintf(h, "g %d\n", a.genClock)
	return h.Sum64()
}
