package mem

import (
	"bytes"
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

// slotPages returns page numbers that fill every slot of the page
// table cache, plus a last one that shares a slot with an earlier one.
func slotPages() []uint64 {
	var pns []uint64
	var filled [pageCacheSize]bool
	for pn := uint64(1); len(pns) < pageCacheSize; pn++ {
		if s := pageSlot(pn); !filled[s] {
			filled[s] = true
			pns = append(pns, pn)
		}
	}
	for pn := pns[len(pns)-1] + 1; ; pn++ {
		if pageSlot(pn) == pageSlot(pns[0]) {
			return append(pns, pn)
		}
	}
}

// cachedSpace maps one page at each of slotPages, stores word pn+off
// at +0x10 of page pn, and loads every word back, the two pages that
// share a slot in turn, so that every slot of the cache holds a page.
func cachedSpace(t *testing.T, off uint64) (*AddressSpace, []uint64) {
	t.Helper()
	a := NewAddressSpace()
	pns := slotPages()
	for _, pn := range pns {
		mustMap(t, a, pn*PageSize, PageSize, PermRW, "data")
		mustStoreU64(t, a, pn*PageSize+0x10, pn+off)
	}
	checkWords(t, a, pns, off, nil, nil)
	return a, pns
}

// checkWords loads every page's word at +0x10 twice, alternating the
// pages, and checks it reads pn+off, or a fault for a page in unmapped
// and 0 for a page in zeroed.
func checkWords(t *testing.T, a *AddressSpace, pns []uint64, off uint64, unmapped, zeroed map[uint64]bool) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, pn := range pns {
			addr := pn*PageSize + 0x10
			v, err := a.LoadU64(addr, 0)
			kv, kerr := a.KLoadU64(addr)
			switch {
			case unmapped[pn]:
				want := &Fault{Addr: addr, Access: AccessRead, Cause: CauseUnmapped}
				if !reflect.DeepEqual(err, want) || !reflect.DeepEqual(kerr, want) {
					t.Fatalf("page %#x: LoadU64 %v, KLoadU64 %v, want %v", pn, err, kerr, want)
				}
			case err != nil || kerr != nil:
				t.Fatalf("page %#x: LoadU64 %v, KLoadU64 %v", pn, err, kerr)
			case zeroed[pn] && (v != 0 || kv != 0):
				t.Fatalf("page %#x: read %d/%d from the replaced page", pn, v, kv)
			case !zeroed[pn] && (v != pn+off || kv != pn+off):
				t.Fatalf("page %#x: read %d/%d, want %d", pn, v, kv, pn+off)
			}
		}
	}
}

// TestPageCacheReset: after Map, MapShared, Unmap and RestoreState, no
// slot of the page table cache still serves a page that is gone, for
// every slot and for two pages that share one.
func TestPageCacheReset(t *testing.T) {
	shared := make([]byte, PageSize)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"map", func(t *testing.T) {
			a, pns := cachedSpace(t, 7)
			zeroed := map[uint64]bool{}
			for _, pn := range pns {
				mustMap(t, a, pn*PageSize, PageSize, PermRW, "fresh")
				zeroed[pn] = true
				checkWords(t, a, pns, 7, nil, zeroed)
			}
		}},
		{"mapshared", func(t *testing.T) {
			a, pns := cachedSpace(t, 7)
			for _, pn := range pns {
				if err := a.MapShared(pn*PageSize, PageSize, PermRW, "shared", shared); err != nil {
					t.Fatal(err)
				}
				if v := mustLoadU64(t, a, pn*PageSize+0x10); v != 0 {
					t.Fatalf("page %#x: read %d, not the shared data", pn, v)
				}
				mustStoreU64(t, a, pn*PageSize+0x10, pn+7)
			}
			checkWords(t, a, pns, 7, nil, nil)
			if !bytes.Equal(shared, make([]byte, PageSize)) {
				t.Fatal("a store wrote through to the shared data")
			}
		}},
		{"unmap", func(t *testing.T) {
			a, pns := cachedSpace(t, 7)
			unmapped := map[uint64]bool{}
			for _, pn := range pns {
				if err := a.Unmap(pn*PageSize, PageSize); err != nil {
					t.Fatal(err)
				}
				unmapped[pn] = true
				checkWords(t, a, pns, 7, unmapped, nil)
			}
		}},
		{"restore", func(t *testing.T) {
			a, pns := cachedSpace(t, 1)
			snap := a.SnapshotState(nil)
			want := a.StateHash()
			for _, pn := range pns {
				mustStoreU64(t, a, pn*PageSize+0x10, pn+2) // the pre-restore pages are cached
			}
			checkWords(t, a, pns, 2, nil, nil)
			a.RestoreState(snap)
			checkWords(t, a, pns, 1, nil, nil)
			if got := a.StateHash(); got != want {
				t.Fatalf("state hash after restore %#x, want %#x", got, want)
			}
			// A store after the restore must land in the restored page.
			for _, pn := range pns {
				mustStoreU64(t, a, pn*PageSize+0x10, pn+3)
			}
			checkWords(t, a, pns, 3, nil, nil)
		}},
		{"clone", func(t *testing.T) {
			a, pns := cachedSpace(t, 1)
			c := a.Clone()
			if c.cache != (AddressSpace{}).cache {
				t.Fatal("clone starts with cached pages")
			}
			for _, pn := range pns {
				mustStoreU64(t, c, pn*PageSize+0x10, pn+2)
			}
			checkWords(t, a, pns, 1, nil, nil)
			checkWords(t, c, pns, 2, nil, nil)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestU64StraddleMatchesSlicePath compares every word accessor with
// the byte-slice accessor it stands for, at every offset in a page and
// where a word leaves its page, for page pairs that fault in each way.
// A word store must leave the same state (bytes, generations and
// generation clock) as the slice store, not just the same error.
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
		word := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
		stores := []struct {
			name       string
			word, wide func(c *AddressSpace, addr uint64) error
		}{
			{"StoreU64",
				func(c *AddressSpace, addr uint64) error { return c.StoreU64(addr, leU64(word[:]), 0) },
				func(c *AddressSpace, addr uint64) error { return c.Store(addr, word[:], 0) }},
			{"KStoreU64",
				func(c *AddressSpace, addr uint64) error { return c.KStoreU64(addr, leU64(word[:])) },
				func(c *AddressSpace, addr uint64) error { return c.KStore(addr, word[:]) }},
		}
		for off := uint64(0); off < PageSize; off++ {
			addr := 0x1000 + off

			v, err := a.LoadU64(addr, 0)
			b, werr := a.Load(addr, 8, 0)
			checkWord(t, l.name, "LoadU64", addr, v, err, b, werr)

			v, err = a.KLoadU64(addr)
			b, werr = a.KLoad(addr, 8)
			checkWord(t, l.name, "KLoadU64", addr, v, err, b, werr)

			for _, st := range stores {
				c, w := a.Clone(), a.Clone()
				err, werr := st.word(c, addr), st.wide(w, addr)
				if !reflect.DeepEqual(err, werr) {
					t.Errorf("%s: %s(%#x) = %v, slice path %v", l.name, st.name, addr, err, werr)
				}
				if h, wh := c.StateHash(), w.StateHash(); h != wh {
					t.Errorf("%s: %s(%#x) leaves state %#x, slice path %#x", l.name, st.name, addr, h, wh)
				}
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

// BenchmarkPageLookup replays the page mix of one quantum-1 step of
// P5's scan: the decode cache checks the generation of the page-0
// trampoline and of a code page that shares page 0's slot under
// pn % 16 (Gen ×2), the guest loads a stack word, and the scheduler
// stores the clock into the vvar page (KStoreU64 ×2).
func BenchmarkPageLookup(b *testing.B) {
	const (
		tramp = 0x0
		code  = 16 * PageSize
		stack = 0x7ffc_ffff_f000
		vvar  = 0x7f7e_0001_0000
	)
	a := NewAddressSpace()
	for _, addr := range []uint64{tramp, code, stack, vvar} {
		if err := a.Map(addr, PageSize, PermRW, "page"); err != nil {
			b.Fatal(err)
		}
		a.KStoreU64(addr, 1) // the page's first store allocates it
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := uint64(0); i < uint64(b.N); i++ {
		v, _ := a.LoadU64(stack+0xff0, 0)
		pageLookupSink += a.Gen(tramp) + a.Gen(code+0x40) + v
		a.KStoreU64(vvar, i)
		a.KStoreU64(vvar+8, i)
	}
}

// pageLookupSink keeps BenchmarkPageLookup's loads live.
var pageLookupSink uint64
