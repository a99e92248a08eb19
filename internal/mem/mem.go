// Package mem implements the simulated 64-bit address space used by the
// K23 reproduction: pages with read/write/execute permissions, Protection
// Keys for Userspace (PKU) semantics, named regions (the source of
// /proc/<pid>/maps), and per-page write-generation counters that the
// CPU's instruction-cache model consumes.
//
// A page's 4 KiB of data exist only after its first store: until then
// it reads as zeros from a shared zero array, as Linux maps untouched
// anonymous memory to its zero page. Clone (fork), SnapshotState and
// RestoreState share data arrays copy-on-write instead of copying them;
// the first store to a shared page copies it.
//
// Two access planes are provided. The user plane (Load, Store, Fetch)
// enforces page permissions and PKU and returns *Fault errors that the
// kernel converts into signals. The kernel plane (KLoad, KStore, KFetch)
// bypasses permissions, as the real kernel does when it builds signal
// frames or services ptrace(PTRACE_POKEDATA) and process_vm_writev.
package mem

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
)

// PageSize is the size of a virtual memory page in bytes, matching x86-64.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Perm is a page permission bitmask.
type Perm uint8

// Page permission bits. A page with PermExec but neither PermRead nor
// PermWrite is eXecute-Only Memory (XOM).
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermNone Perm = 0
	PermRW        = PermRead | PermWrite
	PermRX        = PermRead | PermExec
	PermRWX       = PermRead | PermWrite | PermExec
)

// String renders the permission in /proc/<pid>/maps style ("rwx", "r-x"…).
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind identifies the type of memory access that faulted.
type AccessKind uint8

// Access kinds reported in faults.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

// FaultCause distinguishes why an access faulted.
type FaultCause uint8

// Fault causes.
const (
	// CauseUnmapped means no page is mapped at the address.
	CauseUnmapped FaultCause = iota
	// CausePerm means the page is mapped but the page permissions forbid
	// the access.
	CausePerm
	// CausePkey means page permissions allow the access but the page's
	// protection key, evaluated against the accessing thread's PKRU,
	// forbids it. Instruction fetches are never blocked by protection
	// keys: that asymmetry is what makes PKU-based XOM (and pitfall P4a)
	// possible.
	CausePkey
)

func (c FaultCause) String() string {
	switch c {
	case CauseUnmapped:
		return "unmapped"
	case CausePerm:
		return "permission"
	case CausePkey:
		return "pkey"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Fault describes a memory access violation. It is returned by the user
// plane accessors and converted by the kernel into SIGSEGV.
type Fault struct {
	Addr   uint64
	Access AccessKind
	Cause  FaultCause
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s at %#x (%s)", f.Access, f.Addr, f.Cause)
}

// PKRU is a thread's protection-key rights register: two bits per key,
// bit 2k = access-disable (AD), bit 2k+1 = write-disable (WD), matching
// the x86-64 PKRU layout.
type PKRU uint32

// NumPkeys is the number of protection keys, matching x86-64 PKU.
const NumPkeys = 16

// DenyAccess returns a PKRU value equal to p with all access to key
// denied (AD=1, WD=1).
func (p PKRU) DenyAccess(key int) PKRU {
	return p | PKRU(0b11<<(2*key))
}

// DenyWrite returns a PKRU value equal to p with writes through key
// denied (WD=1) but reads allowed.
func (p PKRU) DenyWrite(key int) PKRU {
	return p | PKRU(0b10<<(2*key))
}

// Allow returns a PKRU value equal to p with key fully allowed.
func (p PKRU) Allow(key int) PKRU {
	return p &^ PKRU(0b11<<(2*key))
}

// mayRead reports whether the PKRU permits reads through key.
func (p PKRU) mayRead(key int) bool { return p&(1<<(2*key)) == 0 }

// mayWrite reports whether the PKRU permits writes through key.
func (p PKRU) mayWrite(key int) bool { return p&(0b11<<(2*key)) == 0 }

// zeroPage is what a page without data reads as. Nothing writes it.
var zeroPage [PageSize]byte

// page is a single mapped 4 KiB page.
type page struct {
	// data is nil until the page's first store. While shared is set,
	// another page, clone or snapshot may hold the same array, so write
	// copies it before storing; no one else ever writes through it.
	data   *[PageSize]byte
	shared bool

	perm Perm
	pkey int
	// gen is incremented on every store to the page. The CPU I-cache
	// model snapshots it to detect (or deliberately miss, absent
	// serialization) cross-modifying code.
	gen uint64
}

// bytes returns the page's data for reading.
func (pg *page) bytes() *[PageSize]byte {
	if pg.data == nil {
		return &zeroPage
	}
	return pg.data
}

// writable returns the page's data for writing, allocating it on the
// first store and copying it if it is shared.
func (pg *page) writable() *[PageSize]byte {
	if pg.data == nil {
		pg.data = new([PageSize]byte)
	} else if pg.shared {
		d := new([PageSize]byte)
		*d = *pg.data
		pg.data = d
	}
	pg.shared = false
	return pg.data
}

// Region describes a named contiguous mapping, as reported by
// /proc/<pid>/maps. Offsets within a region are stable across runs even
// under ASLR, which is what K23's offline logs rely on.
type Region struct {
	Start uint64
	End   uint64 // exclusive
	Perm  Perm   // permission the region was mapped with
	Name  string // e.g. "/lib/libc.so.6", "[stack]", "[vdso]"
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Start && addr < r.End }

// Size returns the region length in bytes.
func (r Region) Size() uint64 { return r.End - r.Start }

// AddressSpace is a sparse 64-bit virtual address space.
//
// The zero value is not usable; call NewAddressSpace. Like everything
// else in a simulated machine, an AddressSpace is owned by the one
// goroutine that drives that machine and holds no lock: no two
// goroutines may use it at the same time.
type AddressSpace struct {
	pages   map[uint64]*page // page number -> page
	regions []Region         // sorted by Start

	// lastPN and lastPage cache the most recent successful page lookup
	// (see pageAt). Map, Unmap and RestoreState reset them.
	lastPN   uint64
	lastPage *page

	// genClock issues write generations. It is monotone across the whole
	// address space so a generation value is never reused, even when a
	// page is unmapped and a fresh one mapped at the same address: any
	// cache keyed on a page's generation can rely on "same gen" meaning
	// "same bytes, same permission".
	genClock uint64
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{pages: make(map[uint64]*page)}
}

// Clone returns a copy of the address space (used by fork). The two
// share every page's data until either side stores to it.
func (a *AddressSpace) Clone() *AddressSpace {
	c := NewAddressSpace()
	for pn, pg := range a.pages {
		pg.shared = true
		np := *pg
		c.pages[pn] = &np
	}
	c.regions = append([]Region(nil), a.regions...)
	c.genClock = a.genClock
	return c
}

// PageNum returns the page number containing addr.
func PageNum(addr uint64) uint64 { return addr >> PageShift }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

// PageCount returns how many pages are needed to cover length bytes
// starting at addr.
func PageCount(addr, length uint64) uint64 {
	if length == 0 {
		return 0
	}
	first := PageNum(addr)
	last := PageNum(addr + length - 1)
	return last - first + 1
}

// Map maps [addr, addr+length) with the given permission and records a
// named region. addr must be page-aligned. Mapping over an existing page
// replaces it (like MAP_FIXED). length is rounded up to whole pages.
func (a *AddressSpace) Map(addr, length uint64, perm Perm, name string) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("mem: map address %#x is not page-aligned", addr)
	}
	if length == 0 {
		return fmt.Errorf("mem: map length is zero")
	}
	a.lastPage = nil
	n := PageCount(addr, length)
	for i := uint64(0); i < n; i++ {
		a.genClock++
		a.pages[PageNum(addr)+i] = &page{perm: perm, gen: a.genClock}
	}
	end := addr + n*PageSize
	a.setRegionRange(addr, end, Region{Start: addr, End: end, Perm: perm, Name: name})
	return nil
}

// Unmap removes pages covering [addr, addr+length).
func (a *AddressSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("mem: unmap address %#x is not page-aligned", addr)
	}
	a.lastPage = nil
	n := PageCount(addr, length)
	for i := uint64(0); i < n; i++ {
		delete(a.pages, PageNum(addr)+i)
	}
	a.setRegionRange(addr, addr+n*PageSize)
	return nil
}

// pageAt returns the page with page number pn, or nil if it is
// unmapped. The last page found is kept and checked before the map:
// consecutive lookups hit the same page 62-79% of the time on the
// k23bench workloads, and keeping it raises micro and macro jobs/s by
// about 10% and 14% (BENCH_17.json, "last_page_lookup").
func (a *AddressSpace) pageAt(pn uint64) *page {
	if a.lastPage != nil && a.lastPN == pn {
		return a.lastPage
	}
	pg := a.pages[pn]
	if pg != nil {
		a.lastPN, a.lastPage = pn, pg
	}
	return pg
}

// setRegionRange makes mid the region list's contents over
// [start, end): the regions that overlap the range are trimmed or split
// in place, and mid (none, or one region spanning the range) goes where
// they were.
func (a *AddressSpace) setRegionRange(start, end uint64, mid ...Region) {
	i := sort.Search(len(a.regions), func(k int) bool { return a.regions[k].End > start })
	j := sort.Search(len(a.regions), func(k int) bool { return a.regions[k].Start >= end })
	var buf [3]Region
	pieces := buf[:0]
	if i < j && a.regions[i].Start < start {
		left := a.regions[i]
		left.End = start
		pieces = append(pieces, left)
	}
	pieces = append(pieces, mid...)
	if i < j && a.regions[j-1].End > end {
		right := a.regions[j-1]
		right.Start = end
		pieces = append(pieces, right)
	}
	a.regions = slices.Replace(a.regions, i, j, pieces...)
}

// Regions returns a copy of the region list, sorted by start address.
func (a *AddressSpace) Regions() []Region {
	return append([]Region(nil), a.regions...)
}

// RegionAt returns the region containing addr, if any.
func (a *AddressSpace) RegionAt(addr uint64) (Region, bool) {
	for _, r := range a.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// RegionByName returns the first region with the given name.
func (a *AddressSpace) RegionByName(name string) (Region, bool) {
	for _, r := range a.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// Protect changes the permission of the pages covering [addr, addr+length).
// All covered pages must be mapped. Mirrors mprotect(2).
func (a *AddressSpace) Protect(addr, length uint64, perm Perm) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("mem: protect address %#x is not page-aligned", addr)
	}
	n := PageCount(addr, length)
	for i := uint64(0); i < n; i++ {
		pg := a.pageAt(PageNum(addr) + i)
		if pg == nil {
			return &Fault{Addr: addr + i*PageSize, Access: AccessWrite, Cause: CauseUnmapped}
		}
		pg.perm = perm
		// A permission change invalidates generation-keyed caches: a
		// fetch that succeeded before mprotect may fault afterwards.
		a.genClock++
		pg.gen = a.genClock
	}
	return nil
}

// ProtectWithKey changes permissions and assigns a protection key,
// mirroring pkey_mprotect(2).
func (a *AddressSpace) ProtectWithKey(addr, length uint64, perm Perm, pkey int) error {
	if pkey < 0 || pkey >= NumPkeys {
		return fmt.Errorf("mem: invalid protection key %d", pkey)
	}
	if err := a.Protect(addr, length, perm); err != nil {
		return err
	}
	n := PageCount(addr, length)
	for i := uint64(0); i < n; i++ {
		a.pageAt(PageNum(addr) + i).pkey = pkey
	}
	return nil
}

// PermAt returns the permission and protection key of the page containing
// addr. ok is false if the page is unmapped.
func (a *AddressSpace) PermAt(addr uint64) (perm Perm, pkey int, ok bool) {
	pg := a.pageAt(PageNum(addr))
	if pg == nil {
		return 0, 0, false
	}
	return pg.perm, pg.pkey, true
}

// Mapped reports whether every page of [addr, addr+length) is mapped.
func (a *AddressSpace) Mapped(addr, length uint64) bool {
	n := PageCount(addr, length)
	for i := uint64(0); i < n; i++ {
		if a.pageAt(PageNum(addr)+i) == nil {
			return false
		}
	}
	return true
}

// Gen returns the write generation of the page containing addr, or 0 if
// the page is unmapped. The CPU I-cache uses this to decide whether a
// cached line is stale.
func (a *AddressSpace) Gen(addr uint64) uint64 {
	if pg := a.pageAt(PageNum(addr)); pg != nil {
		return pg.gen
	}
	return 0
}

// check validates an access of the given kind to the page containing
// addr under pkru and returns the page, or a fault.
func (a *AddressSpace) check(addr uint64, kind AccessKind, pkru PKRU) (*page, *Fault) {
	pg := a.pageAt(PageNum(addr))
	if pg == nil {
		return nil, &Fault{Addr: addr, Access: kind, Cause: CauseUnmapped}
	}
	switch kind {
	case AccessRead:
		if pg.perm&PermRead == 0 {
			return nil, &Fault{Addr: addr, Access: kind, Cause: CausePerm}
		}
		if !pkru.mayRead(pg.pkey) {
			return nil, &Fault{Addr: addr, Access: kind, Cause: CausePkey}
		}
	case AccessWrite:
		if pg.perm&PermWrite == 0 {
			return nil, &Fault{Addr: addr, Access: kind, Cause: CausePerm}
		}
		if !pkru.mayWrite(pg.pkey) {
			return nil, &Fault{Addr: addr, Access: kind, Cause: CausePkey}
		}
	case AccessExec:
		// Instruction fetch: page must be executable. Protection keys do
		// NOT apply to fetches (x86-64 PKU semantics).
		if pg.perm&PermExec == 0 {
			return nil, &Fault{Addr: addr, Access: kind, Cause: CausePerm}
		}
	}
	return pg, nil
}

// Load reads n bytes at addr under the user plane, enforcing page
// permissions and pkru.
func (a *AddressSpace) Load(addr uint64, n int, pkru PKRU) ([]byte, error) {
	return a.copyOut(addr, n, AccessRead, pkru)
}

// Fetch reads n instruction bytes at addr, enforcing execute permission.
// Protection keys are ignored for fetches, which is what enables PKU-XOM.
func (a *AddressSpace) Fetch(addr uint64, n int) ([]byte, error) {
	return a.copyOut(addr, n, AccessExec, 0)
}

// FetchLine fills buf with the cache line containing addr (buf length
// must divide PageSize so a line never spans pages), enforcing execute
// permission, and returns the page's write generation. The CPU
// instruction cache fills its lines through it.
func (a *AddressSpace) FetchLine(addr uint64, buf []byte) (gen uint64, err error) {
	pg, fault := a.check(addr, AccessExec, 0)
	if fault != nil {
		return 0, fault
	}
	lineBase := addr &^ uint64(len(buf)-1)
	off := lineBase % PageSize
	copy(buf, pg.bytes()[off:off+uint64(len(buf))])
	return pg.gen, nil
}

func (a *AddressSpace) copyOut(addr uint64, n int, kind AccessKind, pkru PKRU) ([]byte, error) {
	out := make([]byte, n)
	off := 0
	for off < n {
		cur := addr + uint64(off)
		pg, fault := a.check(cur, kind, pkru)
		if fault != nil {
			return nil, fault
		}
		po := cur % PageSize
		c := copy(out[off:], pg.bytes()[po:])
		off += c
	}
	return out, nil
}

// Store writes b at addr under the user plane, enforcing page permissions
// and pkru, and bumps the write generation of every touched page.
func (a *AddressSpace) Store(addr uint64, b []byte, pkru PKRU) error {
	// Validate the whole range first so a partially permitted store does
	// not partially complete.
	for off := 0; off < len(b); off += PageSize {
		if _, fault := a.check(addr+uint64(off), AccessWrite, pkru); fault != nil {
			return fault
		}
	}
	if len(b) > 0 {
		if _, fault := a.check(addr+uint64(len(b)-1), AccessWrite, pkru); fault != nil {
			return fault
		}
	}
	a.write(addr, b)
	return nil
}

// KLoad reads n bytes bypassing permissions (kernel plane).
func (a *AddressSpace) KLoad(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := a.KRead(addr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// KRead fills dst from addr bypassing permissions (kernel plane), as
// KLoad does but into the caller's buffer.
func (a *AddressSpace) KRead(addr uint64, dst []byte) error {
	off := 0
	for off < len(dst) {
		cur := addr + uint64(off)
		pg := a.pageAt(PageNum(cur))
		if pg == nil {
			return &Fault{Addr: cur, Access: AccessRead, Cause: CauseUnmapped}
		}
		off += copy(dst[off:], pg.bytes()[cur%PageSize:])
	}
	return nil
}

// KStore writes b bypassing permissions (kernel plane). Pages must be
// mapped. Write generations are still bumped so the I-cache model sees
// kernel-plane code modification too.
func (a *AddressSpace) KStore(addr uint64, b []byte) error {
	for off := 0; off < len(b); off += PageSize {
		if a.pageAt(PageNum(addr+uint64(off))) == nil {
			return &Fault{Addr: addr + uint64(off), Access: AccessWrite, Cause: CauseUnmapped}
		}
	}
	if len(b) > 0 {
		if a.pageAt(PageNum(addr+uint64(len(b)-1))) == nil {
			return &Fault{Addr: addr + uint64(len(b)-1), Access: AccessWrite, Cause: CauseUnmapped}
		}
	}
	a.write(addr, b)
	return nil
}

// write performs the raw write and generation bumps. All touched
// pages must exist. It is the only writer of page data.
func (a *AddressSpace) write(addr uint64, b []byte) {
	off := 0
	for off < len(b) {
		cur := addr + uint64(off)
		pg := a.pageAt(PageNum(cur))
		po := cur % PageSize
		c := copy(pg.writable()[po:], b[off:])
		a.genClock++
		pg.gen = a.genClock
		off += c
	}
}

// LoadU64 reads a little-endian uint64 under the user plane. A word
// inside one page is read in place; only a page-straddling word goes
// through Load's copy.
func (a *AddressSpace) LoadU64(addr uint64, pkru PKRU) (uint64, error) {
	if po := addr % PageSize; po <= PageSize-8 {
		pg, fault := a.check(addr, AccessRead, pkru)
		if fault != nil {
			return 0, fault
		}
		return leU64(pg.bytes()[po:]), nil
	}
	b, err := a.Load(addr, 8, pkru)
	if err != nil {
		return 0, err
	}
	return leU64(b), nil
}

// StoreU64 writes a little-endian uint64 under the user plane.
func (a *AddressSpace) StoreU64(addr, v uint64, pkru PKRU) error {
	b := putLeU64(v)
	return a.Store(addr, b[:], pkru)
}

// KLoadU64 reads a little-endian uint64 on the kernel plane, in place
// unless the word straddles a page.
func (a *AddressSpace) KLoadU64(addr uint64) (uint64, error) {
	if po := addr % PageSize; po <= PageSize-8 {
		pg := a.pageAt(PageNum(addr))
		if pg == nil {
			return 0, &Fault{Addr: addr, Access: AccessRead, Cause: CauseUnmapped}
		}
		return leU64(pg.bytes()[po:]), nil
	}
	b, err := a.KLoad(addr, 8)
	if err != nil {
		return 0, err
	}
	return leU64(b), nil
}

// KStoreU64 writes a little-endian uint64 on the kernel plane.
func (a *AddressSpace) KStoreU64(addr, v uint64) error {
	b := putLeU64(v)
	return a.KStore(addr, b[:])
}

// KLoadString reads a NUL-terminated string of at most max bytes on the
// kernel plane, scanning each page in place. A string that runs into an
// unmapped page faults at that page's first byte.
func (a *AddressSpace) KLoadString(addr uint64, max int) (string, error) {
	var out []byte
	for len(out) < max {
		cur := addr + uint64(len(out))
		pg := a.pageAt(PageNum(cur))
		if pg == nil {
			return "", &Fault{Addr: cur, Access: AccessRead, Cause: CauseUnmapped}
		}
		chunk := pg.bytes()[cur%PageSize:]
		if rest := max - len(out); len(chunk) > rest {
			chunk = chunk[:rest]
		}
		if n := bytes.IndexByte(chunk, 0); n >= 0 {
			if out == nil {
				return string(chunk[:n]), nil
			}
			return string(append(out, chunk[:n]...)), nil
		}
		out = append(out, chunk...)
	}
	return string(out), nil
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(v uint64) [8]byte {
	return [8]byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
}
