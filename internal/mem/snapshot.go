package mem

// Checkpoint support: an AddressSpace can be snapshotted into an
// ASState and later restored from it, in place. Snapshot and restore
// copy no page data: a snapshot holds the live page's data array, the
// live page is marked shared, and a restore installs the snapshot's
// arrays as shared pages. The first store to a shared page copies it
// (see page.writable), so a snapshot is never written through and one
// ASState can seed any number of restores.
//
// Snapshots still report themselves as dirty-page deltas against a
// previous snapshot: the genClock is monotone across the whole address
// space and a page's gen changes on every store, mprotect and remap,
// so "same gen" means "same bytes, same permission".

import (
	"fmt"
	"hash/fnv"
	"slices"
)

// PageState is the snapshot of one mapped page. Data is nil for a page
// that has never been stored to. It is shared copy-on-write with the
// live page it was taken from, with other snapshots and with the pages
// restored from it; no one ever writes through it.
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

	// Copied and Shared count the pages whose generation changed since
	// the previous snapshot (all pages when there is none) and the pages
	// whose generation did not: the delta-checkpoint space metric.
	Copied int
	Shared int
}

// SnapshotState captures the address space. prev, if non-nil, is an
// earlier snapshot of the same address space; it only sets the Copied
// and Shared counts.
func (a *AddressSpace) SnapshotState(prev *ASState) *ASState {
	s := &ASState{
		Pages:    make(map[uint64]PageState, len(a.pages)),
		Regions:  append([]Region(nil), a.regions...),
		GenClock: a.genClock,
	}
	var prevPages map[uint64]PageState
	if prev != nil {
		prevPages = prev.Pages
	}
	for pn, pg := range a.pages {
		pg.shared = true
		s.Pages[pn] = pg.state()
		if old, ok := prevPages[pn]; ok && old.Gen == pg.gen {
			s.Shared++
		} else {
			s.Copied++
		}
	}
	return s
}

// RestoreState rewinds the address space to the snapshot, in place: the
// AddressSpace object keeps its identity (cores and host closures that
// hold the pointer stay valid) while its page table, regions and
// genClock are replaced by the snapshot's. The restored pages share the
// snapshot's data.
func (a *AddressSpace) RestoreState(s *ASState) {
	clear(a.cache[:])
	a.pages = make(map[uint64]*page, len(s.Pages))
	for pn, ps := range s.Pages {
		a.pages[pn] = &page{data: ps.Data, shared: true, perm: ps.Perm, pkey: ps.Pkey, gen: ps.Gen}
	}
	a.regions = append([]Region(nil), s.Regions...)
	a.genClock = s.GenClock
}

// state is the page's snapshot. It does not mark the page shared.
func (pg *page) state() PageState {
	return PageState{Perm: pg.perm, Pkey: pg.pkey, Gen: pg.gen, Data: pg.data}
}

// Hash returns a deterministic FNV-1a hash of the address space state
// the snapshot captured: every page's number, permission, pkey,
// generation and bytes (in sorted page order; a page without data hashes
// as 4,096 zeros) plus the region table and generation clock.
func (s *ASState) Hash() uint64 { return hashState(s.Pages, s.Regions, s.GenClock) }

func hashState(pages map[uint64]PageState, regions []Region, genClock uint64) uint64 {
	h := fnv.New64a()
	pns := make([]uint64, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)
	for _, pn := range pns {
		ps := pages[pn]
		data := ps.Data
		if data == nil {
			data = &zeroPage
		}
		fmt.Fprintf(h, "p %d %d %d %d ", pn, ps.Perm, ps.Pkey, ps.Gen)
		h.Write(data[:])
		h.Write([]byte{'\n'})
	}
	for _, r := range regions {
		fmt.Fprintf(h, "r %#x %#x %s %q\n", r.Start, r.End, r.Perm, r.Name)
	}
	fmt.Fprintf(h, "g %d\n", genClock)
	return h.Sum64()
}
