package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// buildAS maps a few regions and dirties their pages so a snapshot has
// real content to preserve.
func buildAS(t *testing.T) *AddressSpace {
	t.Helper()
	a := NewAddressSpace()
	if err := a.Map(0x1000, 8*PageSize, PermRW, "heap"); err != nil {
		t.Fatalf("Map heap: %v", err)
	}
	if err := a.Map(0x400000, 4*PageSize, PermRX, "text"); err != nil {
		t.Fatalf("Map text: %v", err)
	}
	for i := uint64(0); i < 8; i++ {
		if err := a.KStore(0x1000+i*PageSize, []byte{byte(i), 0x42, byte(i * 7)}); err != nil {
			t.Fatalf("KStore page %d: %v", i, err)
		}
	}
	if err := a.KStore(0x400000, []byte{0x0f, 0x05}); err != nil {
		t.Fatalf("KStore text: %v", err)
	}
	return a
}

// TestASStateRoundTrip is the mem leg of the checkpoint property:
// Snapshot → mutate → Restore must reproduce the exact pre-mutation
// StateHash, and one snapshot must survive being restored repeatedly.
func TestASStateRoundTrip(t *testing.T) {
	a := buildAS(t)
	h0 := a.StateHash()
	s0 := a.SnapshotState(nil)

	mutate := func() {
		if err := a.KStore(0x2000, []byte("mutated")); err != nil {
			t.Fatalf("KStore: %v", err)
		}
		if err := a.Protect(0x1000, PageSize, PermRead); err != nil {
			t.Fatalf("Protect: %v", err)
		}
		if err := a.Map(0x900000, PageSize, PermRW, "late"); err != nil {
			t.Fatalf("Map: %v", err)
		}
		if err := a.Unmap(0x400000+2*PageSize, PageSize); err != nil {
			t.Fatalf("Unmap: %v", err)
		}
	}
	mutate()
	if a.StateHash() == h0 {
		t.Fatalf("mutation did not change the state hash; test is vacuous")
	}
	a.RestoreState(s0)
	if got := a.StateHash(); got != h0 {
		t.Fatalf("restore: hash %#x, want %#x", got, h0)
	}

	// The same snapshot must seed a second restore after fresh damage.
	mutate()
	a.RestoreState(s0)
	if got := a.StateHash(); got != h0 {
		t.Fatalf("second restore from same snapshot: hash %#x, want %#x", got, h0)
	}
}

// TestASStateDeltaSharing checks that a chained snapshot copies only
// pages whose generation moved and that restoring from the delta still
// reproduces the exact state.
func TestASStateDeltaSharing(t *testing.T) {
	a := buildAS(t)
	s0 := a.SnapshotState(nil)
	if s0.Shared != 0 {
		t.Fatalf("base snapshot shared %d pages with nil prev", s0.Shared)
	}

	if err := a.KStore(0x3000, []byte("dirty")); err != nil {
		t.Fatalf("KStore: %v", err)
	}
	h1 := a.StateHash()
	s1 := a.SnapshotState(s0)
	if s1.Copied != 1 {
		t.Fatalf("delta copied %d pages, want exactly the 1 dirtied page", s1.Copied)
	}
	if s1.Shared != s0.Copied-1 {
		t.Fatalf("delta shared %d pages, want %d", s1.Shared, s0.Copied-1)
	}

	// Damage everything, then restore from the delta.
	for i := uint64(0); i < 8; i++ {
		if err := a.KStore(0x1000+i*PageSize, []byte("xxxx")); err != nil {
			t.Fatalf("KStore: %v", err)
		}
	}
	a.RestoreState(s1)
	if got := a.StateHash(); got != h1 {
		t.Fatalf("restore from delta: hash %#x, want %#x", got, h1)
	}

	// The chain's base must be unharmed by restores of its child: shared
	// page data is copy-on-write, never written through.
	a.RestoreState(s0)
	if err := a.KStore(0x3000, []byte("post-restore damage")); err != nil {
		t.Fatalf("KStore: %v", err)
	}
	a.RestoreState(s1)
	if got := a.StateHash(); got != h1 {
		t.Fatalf("delta snapshot corrupted by writes after a base restore: hash %#x, want %#x", got, h1)
	}
}

// imageData returns n bytes of a non-zero pattern whose capacity runs,
// zeroed, to the end of its last page, as asm.Build lays out a section.
func imageData(n int) []byte {
	d := make([]byte, n, (n+PageSize-1)/PageSize*PageSize)
	for i := range d {
		d[i] = byte(i*13 + 1)
	}
	return d
}

// TestMapSharedMatchesStore: MapShared of an image section's bytes
// leaves the address space exactly as Map followed by KStore of the
// same bytes does (StateHash, every page's generation, and the
// Copied/Shared counts of later snapshots), and a store into a shared
// page copies it instead of writing the source.
func TestMapSharedMatchesStore(t *testing.T) {
	const base, length = 0x400000, 5 * PageSize
	data := imageData(2*PageSize + 100)
	pristine := append([]byte(nil), data[:cap(data)]...)
	stored, shared := buildAS(t), buildAS(t)
	mustMap(t, stored, base, length, PermRX, "/bin/x")
	if err := stored.KStore(base, data); err != nil {
		t.Fatal(err)
	}
	if err := shared.MapShared(base, length, PermRX, "/bin/x", data); err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		if s, m := stored.StateHash(), shared.StateHash(); s != m {
			t.Fatalf("%s: StateHash %#x after MapShared, %#x after Map+KStore", when, m, s)
		}
		for pn := range stored.pages {
			if s, m := stored.Gen(pn*PageSize), shared.Gen(pn*PageSize); s != m {
				t.Fatalf("%s: page %#x gen %d after MapShared, %d after Map+KStore", when, pn, m, s)
			}
		}
	}
	same("mapped")
	store := func(addr uint64) {
		t.Helper()
		for _, a := range []*AddressSpace{stored, shared} {
			if err := a.KStoreU64(addr, 0xdeadbeef); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(data[:cap(data)], pristine) {
			t.Fatalf("a store at %#x wrote the source bytes", addr)
		}
		if v, _ := shared.KLoadU64(addr); v != 0xdeadbeef {
			t.Fatalf("the store at %#x reads back %#x", addr, v)
		}
		same(fmt.Sprintf("stored at %#x", addr))
	}
	store(base + 8)

	prevS, prevM := stored.SnapshotState(nil), shared.SnapshotState(nil)
	store(base + PageSize + 8)
	s, m := stored.SnapshotState(prevS), shared.SnapshotState(prevM)
	if s.Copied != m.Copied || s.Shared != m.Shared {
		t.Fatalf("snapshot after the store: copied %d shared %d after MapShared, %d and %d after Map+KStore",
			m.Copied, m.Shared, s.Copied, s.Shared)
	}
}

// TestMapSharedRejects: MapShared refuses data whose capacity stops
// short of its last page's end, or that is longer than the mapping,
// and leaves the address space as it was.
func TestMapSharedRejects(t *testing.T) {
	a := buildAS(t)
	h := a.StateHash()
	tight := imageData(PageSize + 1)[: PageSize+1 : PageSize+1]
	if err := a.MapShared(0x800000, 2*PageSize, PermRX, "x", tight); err == nil {
		t.Error("MapShared accepted data whose capacity ends mid-page")
	}
	if err := a.MapShared(0x800000, PageSize, PermRX, "x", imageData(PageSize+1)); err == nil {
		t.Error("MapShared accepted data longer than the mapping")
	}
	if a.StateHash() != h {
		t.Error("a rejected MapShared changed the address space")
	}
}
