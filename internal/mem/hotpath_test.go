package mem

import (
	"reflect"
	"testing"
)

// The word accessors, KLoadString and the last-page lookup are the
// guest-memory hot path. These tests pin them to the general byte-slice
// accessors: same values, same faults, no allocation.

func mustStoreU64(t *testing.T, a *AddressSpace, addr, v uint64) {
	t.Helper()
	if err := a.StoreU64(addr, v, 0); err != nil {
		t.Fatalf("StoreU64(%#x): %v", addr, err)
	}
}

func mustLoadU64(t *testing.T, a *AddressSpace, addr uint64) uint64 {
	t.Helper()
	v, err := a.LoadU64(addr, 0)
	if err != nil {
		t.Fatalf("LoadU64(%#x): %v", addr, err)
	}
	return v
}

func TestLastPageResetByMap(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, PageSize, PermRW, "data")
	mustStoreU64(t, a, 0x1010, 7)
	mustLoadU64(t, a, 0x1010) // the page is now the cached one
	mustMap(t, a, 0x1000, PageSize, PermRW, "fresh")
	if v := mustLoadU64(t, a, 0x1010); v != 0 {
		t.Fatalf("load after remap read %d from the replaced page", v)
	}
}

func TestLastPageResetByUnmap(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, PageSize, PermRW, "data")
	mustLoadU64(t, a, 0x1010)
	if err := a.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	want := &Fault{Addr: 0x1010, Access: AccessRead, Cause: CauseUnmapped}
	if _, err := a.LoadU64(0x1010, 0); !reflect.DeepEqual(err, want) {
		t.Fatalf("LoadU64 after unmap: %v, want %v", err, want)
	}
	if _, err := a.KLoadU64(0x1010); !reflect.DeepEqual(err, want) {
		t.Fatalf("KLoadU64 after unmap: %v, want %v", err, want)
	}
}

func TestLastPageResetByRestore(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, PageSize, PermRW, "data")
	mustStoreU64(t, a, 0x1010, 1)
	snap := a.SnapshotState(nil)
	want := a.StateHash()
	mustStoreU64(t, a, 0x1010, 2) // the pre-restore page is cached
	a.RestoreState(snap)
	if v := mustLoadU64(t, a, 0x1010); v != 1 {
		t.Fatalf("load after restore read %d, want 1", v)
	}
	if got := a.StateHash(); got != want {
		t.Fatalf("state hash after restore %#x, want %#x", got, want)
	}
	// A store after the restore must land in the restored page.
	mustStoreU64(t, a, 0x1010, 3)
	b, err := a.KLoad(0x1010, 1)
	if err != nil || b[0] != 3 {
		t.Fatalf("store after restore not visible: %v, %v", b, err)
	}
}

func TestCloneDoesNotShareLastPage(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, PageSize, PermRW, "data")
	mustStoreU64(t, a, 0x1010, 1)
	c := a.Clone()
	if c.lastPage != nil {
		t.Fatal("clone starts with a cached page")
	}
	mustStoreU64(t, c, 0x1010, 2)
	if v := mustLoadU64(t, a, 0x1010); v != 1 {
		t.Fatalf("parent reads %d after the clone's store", v)
	}
	if v := mustLoadU64(t, c, 0x1010); v != 2 {
		t.Fatalf("clone reads %d, want 2", v)
	}
}

// TestU64StraddleMatchesSlicePath compares every word accessor with
// the byte-slice accessor it stands for, at the offsets where a word
// leaves its page, for page pairs that fault in each way.
func TestU64StraddleMatchesSlicePath(t *testing.T) {
	layouts := []struct {
		name          string
		first, second Perm
		mapSecond     bool
	}{
		{"next-unmapped", PermRW, PermNone, false},
		{"next-readonly", PermRW, PermRead, true},
		{"first-guarded", PermNone, PermRW, true},
		{"both-rw", PermRW, PermRW, true},
	}
	for _, l := range layouts {
		a := NewAddressSpace()
		mustMap(t, a, 0x1000, PageSize, l.first, "first")
		if l.mapSecond {
			mustMap(t, a, 0x2000, PageSize, l.second, "second")
		}
		for i := uint64(0); i < 2*PageSize; i++ {
			if a.Mapped(0x1000+i, 1) {
				if err := a.KStore(0x1000+i, []byte{byte(i*7 + 1)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for off := uint64(PageSize - 16); off < PageSize; off++ {
			addr := 0x1000 + off

			v, err := a.LoadU64(addr, 0)
			b, werr := a.Load(addr, 8, 0)
			checkWord(t, l.name, "LoadU64", addr, v, err, b, werr)

			v, err = a.KLoadU64(addr)
			b, werr = a.KLoad(addr, 8)
			checkWord(t, l.name, "KLoadU64", addr, v, err, b, werr)

			word := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
			err = a.StoreU64(addr, leU64(word[:]), 0)
			werr = a.Clone().Store(addr, word[:], 0)
			if !reflect.DeepEqual(err, werr) {
				t.Errorf("%s: StoreU64(%#x) = %v, Store = %v", l.name, addr, err, werr)
			}
			err = a.KStoreU64(addr, leU64(word[:]))
			werr = a.Clone().KStore(addr, word[:])
			if !reflect.DeepEqual(err, werr) {
				t.Errorf("%s: KStoreU64(%#x) = %v, KStore = %v", l.name, addr, err, werr)
			}
		}
	}
}

func checkWord(t *testing.T, layout, name string, addr, v uint64, err error, b []byte, werr error) {
	t.Helper()
	if !reflect.DeepEqual(err, werr) {
		t.Errorf("%s: %s(%#x) error %v, slice path %v", layout, name, addr, err, werr)
		return
	}
	if werr == nil && v != leU64(b) {
		t.Errorf("%s: %s(%#x) = %#x, slice path %#x", layout, name, addr, v, leU64(b))
	}
}

func TestU64AccessorsDoNotAllocate(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, 2*PageSize, PermRW, "data")
	const addr = 0x1ff0 // inside the first page, the other one cached between calls
	for name, fn := range map[string]func(){
		"LoadU64":   func() { a.LoadU64(addr, 0); a.LoadU64(addr+PageSize, 0) },
		"KLoadU64":  func() { a.KLoadU64(addr); a.KLoadU64(addr + PageSize) },
		"StoreU64":  func() { a.StoreU64(addr, 1, 0); a.StoreU64(addr+PageSize, 2, 0) },
		"KStoreU64": func() { a.KStoreU64(addr, 1); a.KStoreU64(addr+PageSize, 2) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocations per call pair, want 0", name, n)
		}
	}
}

// kloadStringBytewise is the byte-at-a-time reference KLoadString is
// held to.
func kloadStringBytewise(a *AddressSpace, addr uint64, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := a.KLoad(addr+uint64(i), 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			break
		}
		out = append(out, b[0])
	}
	return string(out), nil
}

func TestKLoadStringStraddle(t *testing.T) {
	a := NewAddressSpace()
	mustMap(t, a, 0x1000, PageSize, PermNone, "first")
	if err := a.KStore(0x1ffd, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	check := func(addr uint64, max int) (string, error) {
		t.Helper()
		got, err := a.KLoadString(addr, max)
		want, werr := kloadStringBytewise(a, addr, max)
		if got != want || !reflect.DeepEqual(err, werr) {
			t.Errorf("KLoadString(%#x, %d) = %q, %v; bytewise %q, %v", addr, max, got, err, want, werr)
		}
		return got, err
	}

	// The string runs into an unmapped page: fault at its first byte.
	if _, err := check(0x1ffd, 64); !reflect.DeepEqual(err, &Fault{Addr: 0x2000, Access: AccessRead, Cause: CauseUnmapped}) {
		t.Errorf("unterminated string fault = %v", err)
	}
	check(0x1ffd, 3) // max stops exactly at the page end: no fault
	check(0x1ffd, 2)
	check(0x1ffd, 0)
	check(0x3000, 8)

	mustMap(t, a, 0x2000, PageSize, PermNone, "second")
	if err := a.KStore(0x2000, []byte("de\x00f")); err != nil {
		t.Fatal(err)
	}
	if s, _ := check(0x1ffd, 64); s != "abcde" {
		t.Errorf("straddling string = %q, want abcde", s)
	}
	check(0x1ffd, 4)
	check(0x1fff, 1)

	// A string inside one page, and an empty one.
	if err := a.KStore(0x1800, []byte("xyz\x00")); err != nil {
		t.Fatal(err)
	}
	if s, _ := check(0x1800, 64); s != "xyz" {
		t.Errorf("one-page string = %q, want xyz", s)
	}
	check(0x1803, 64)
	if n := testing.AllocsPerRun(100, func() { a.KLoadString(0x1800, 64) }); n != 1 {
		t.Errorf("one-page KLoadString: %v allocations, want 1 (the string)", n)
	}
}
