package mem

import (
	"runtime"
	"testing"
)

// allocBytes returns the fewest heap bytes op allocated in runs runs;
// the minimum ignores what other goroutines allocate meanwhile. setup
// runs before each op, outside the measurement.
func allocBytes(runs int, setup, op func()) uint64 {
	var before, after runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

const (
	guardBase  = 0x7ff000000000
	guardPages = 64 // a stack's worth
)

// storedSpace returns a guardPages-page space whose every page holds data.
func storedSpace(t *testing.T) *AddressSpace {
	t.Helper()
	a := NewAddressSpace()
	mustMap(t, a, guardBase, guardPages*PageSize, PermRW, "[stack]")
	for i := uint64(0); i < guardPages; i++ {
		mustStoreU64(t, a, guardBase+i*PageSize, i+1)
	}
	return a
}

// TestMapAllocatesNoPageData: mapping a stack allocates its page table
// entries, not its pages' 4 KiB each.
func TestMapAllocatesNoPageData(t *testing.T) {
	a := NewAddressSpace()
	mapStack := func() { a.Map(guardBase, guardPages*PageSize, PermRW, "[stack]") }
	mapStack()
	n := allocBytes(20, func() {}, mapStack)
	t.Logf("Map: %d bytes", n)
	if n >= PageSize {
		t.Errorf("Map of %d pages allocates %d bytes, want less than one page (%d)", guardPages, n, PageSize)
	}
}

// TestMapSharedAllocatesNoPageData: mapping an image's pages shared
// allocates their page table entries, not their pages' 4 KiB each.
func TestMapSharedAllocatesNoPageData(t *testing.T) {
	a := NewAddressSpace()
	data := imageData(guardPages * PageSize)
	mapImage := func() { a.MapShared(guardBase, guardPages*PageSize, PermRX, "/bin/x", data) }
	mapImage()
	n := allocBytes(20, func() {}, mapImage)
	t.Logf("MapShared: %d bytes", n)
	if n >= PageSize {
		t.Errorf("MapShared of %d pages allocates %d bytes, want less than one page (%d)", guardPages, n, PageSize)
	}
}

// TestSnapshotRestoreAllocateNoPageData: SnapshotState and RestoreState
// allocate the page table and region list only. Copying the 64 pages'
// data would add 256 KiB; one copied page would add 4 KiB to the
// table's few KiB.
func TestSnapshotRestoreAllocateNoPageData(t *testing.T) {
	a := storedSpace(t)
	const limit = 2 * PageSize
	var s *ASState
	n := allocBytes(20, func() {}, func() { s = a.SnapshotState(nil) })
	t.Logf("SnapshotState: %d bytes", n)
	if n >= limit {
		t.Errorf("SnapshotState of %d stored pages allocates %d bytes, want less than %d", guardPages, n, limit)
	}
	n = allocBytes(20, func() {}, func() { a.RestoreState(s) })
	t.Logf("RestoreState: %d bytes", n)
	if n >= limit {
		t.Errorf("RestoreState of %d stored pages allocates %d bytes, want less than %d", guardPages, n, limit)
	}
}

// TestFirstStoreCopiesOnePage: after a snapshot or a clone shares a
// page, the first store to it copies exactly that page and the second
// copies nothing.
func TestFirstStoreCopiesOnePage(t *testing.T) {
	a := storedSpace(t)
	const addr = guardBase + 5*PageSize + 8
	store := func() { a.StoreU64(addr, 7, 0) }
	for name, share := range map[string]func(){
		"snapshot": func() { a.SnapshotState(nil) },
		"clone":    func() { a.Clone() },
	} {
		if n := allocBytes(50, share, store); n != PageSize {
			t.Errorf("first store after a %s allocates %d bytes, want one page (%d)", name, n, PageSize)
		}
		if n := allocBytes(50, func() { share(); store() }, store); n != 0 {
			t.Errorf("second store after a %s allocates %d bytes, want 0", name, n)
		}
	}
}
