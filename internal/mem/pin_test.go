package mem

import (
	"fmt"
	"strings"
	"testing"
)

// asOp names one operation of a scripted address-space run.
type asOp uint8

const (
	opMap asOp = iota
	opUnmap
	opProtect
	opProtectKey
	opStore
	opKStore
	opLoad
	opKRead
	opLoadU64
	opKLoadString
	opFetch
	opFetchLine
	opSnapshot
	opRestore
	opClone
	numASOps
)

var asOpNames = [numASOps]string{
	"map", "unmap", "protect", "protectkey", "store", "kstore", "load",
	"kread", "loadu64", "kloadstring", "fetch", "fetchline", "snapshot",
	"restore", "clone",
}

func (o asOp) String() string { return asOpNames[o] }

// asStep is one step of a scripted run. Which fields an operation reads:
//
//	map, unmap, protect, protectkey: addr, length (perm, pkey; a map
//	                                 names its region after pkey)
//	store, kstore:                   addr, data (pkru)
//	load, kread, loadu64, fetch:     addr, length (pkru)
//	kloadstring:                     addr, length (the max)
//	fetchline:                       addr (a 64-byte line)
//	snapshot:                        snap (prev's index, -1 for none)
//	restore:                         snap (the snapshot's index)
//
// side picks the address space: 0 the original, 1 its latest clone.
type asStep struct {
	op     asOp
	side   uint8
	addr   uint64
	length uint64
	perm   Perm
	pkey   int
	pkru   PKRU
	data   []byte
	snap   int
}

// asRun applies asSteps. It keeps the original address space, its
// latest clone and every snapshot taken, in order.
type asRun struct {
	sides [2]*AddressSpace
	snaps []*ASState
}

func newASRun() *asRun { return &asRun{sides: [2]*AddressSpace{NewAddressSpace()}} }

// space returns the address space step s acts on: the original until
// a clone exists.
func (r *asRun) space(s asStep) *AddressSpace {
	if s.side == 1 && r.sides[1] != nil {
		return r.sides[1]
	}
	return r.sides[0]
}

// apply performs s and returns what it read (hex bytes, a word, a
// string, a generation or a snapshot's counts) and its error.
// Snapshot and Restore indexes wrap around the snapshots taken; a
// restore before any snapshot does nothing.
func (r *asRun) apply(s asStep) (string, error) {
	a := r.space(s)
	switch s.op {
	case opMap:
		return "", a.Map(s.addr, s.length, s.perm, fmt.Sprintf("r%d", s.pkey))
	case opUnmap:
		return "", a.Unmap(s.addr, s.length)
	case opProtect:
		return "", a.Protect(s.addr, s.length, s.perm)
	case opProtectKey:
		return "", a.ProtectWithKey(s.addr, s.length, s.perm, s.pkey)
	case opStore:
		return "", a.Store(s.addr, s.data, s.pkru)
	case opKStore:
		return "", a.KStore(s.addr, s.data)
	case opLoad:
		b, err := a.Load(s.addr, int(s.length), s.pkru)
		return fmt.Sprintf("%x", b), err
	case opKRead:
		b := make([]byte, s.length)
		err := a.KRead(s.addr, b)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%x", b), nil
	case opLoadU64:
		v, err := a.LoadU64(s.addr, s.pkru)
		return fmt.Sprintf("%#x", v), err
	case opKLoadString:
		str, err := a.KLoadString(s.addr, int(s.length))
		return fmt.Sprintf("%q", str), err
	case opFetch:
		b, err := a.Fetch(s.addr, int(s.length))
		return fmt.Sprintf("%x", b), err
	case opFetchLine:
		var line [64]byte
		gen, err := a.FetchLine(s.addr, line[:])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("gen %d %x", gen, line), nil
	case opSnapshot:
		var prev *ASState
		if s.snap >= 0 && len(r.snaps) > 0 {
			prev = r.snaps[s.snap%len(r.snaps)]
		}
		st := a.SnapshotState(prev)
		r.snaps = append(r.snaps, st)
		return fmt.Sprintf("copied %d shared %d", st.Copied, st.Shared), nil
	case opRestore:
		if len(r.snaps) > 0 {
			a.RestoreState(r.snaps[s.snap%len(r.snaps)])
		}
		return "", nil
	case opClone:
		r.sides[1] = a.Clone()
		return "", nil
	}
	panic(fmt.Sprintf("unknown op %d", s.op))
}

// pinBase is where the pinned script maps its regions.
const pinBase = 0x10000

// pinScript maps regions several pages long (some pages never stored),
// stores across page boundaries, protects, snapshots with and without
// prev, restores, clones and stores on both sides, and unmaps.
var pinScript = []asStep{
	{op: opMap, addr: pinBase, length: 4 * PageSize, perm: PermRW},
	{op: opMap, addr: pinBase + 4*PageSize, length: 3*PageSize - 512, perm: PermRX, pkey: 1},
	{op: opMap, addr: pinBase + 8*PageSize, length: 2 * PageSize, perm: PermRW, pkey: 2},
	{op: opLoad, addr: pinBase + 2*PageSize - 8, length: 16},
	{op: opStore, addr: pinBase + 0x10, data: []byte("hello\x00world")},
	{op: opStore, addr: pinBase + PageSize - 4, data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
	{op: opKStore, addr: pinBase + 4*PageSize + 0x20, data: []byte{0x0f, 0x05, 0xc3}},
	{op: opFetch, addr: pinBase + 4*PageSize + 0x1e, length: 6},
	{op: opFetchLine, addr: pinBase + 4*PageSize + 0x25},
	{op: opFetchLine, addr: pinBase + 5*PageSize},
	{op: opStore, addr: pinBase + 4*PageSize, data: []byte{0x90}},
	{op: opProtect, addr: pinBase + 2*PageSize, length: PageSize, perm: PermRead},
	{op: opProtectKey, addr: pinBase + 8*PageSize, length: 2 * PageSize, perm: PermRW, pkey: 3},
	{op: opStore, addr: pinBase + 8*PageSize + 8, data: []byte("denied"), pkru: PKRU(0).DenyWrite(3)},
	{op: opStore, addr: pinBase + 8*PageSize + 8, data: []byte("stack")},
	{op: opSnapshot, snap: -1},
	{op: opStore, addr: pinBase + 0x20, data: []byte("dirty")},
	{op: opKStore, addr: pinBase + 4*PageSize - 3, data: []byte("straddle")},
	{op: opSnapshot, snap: 0},
	{op: opLoadU64, addr: pinBase + 4*PageSize - 4},
	{op: opKLoadString, addr: pinBase + 0x10, length: 64},
	{op: opKRead, addr: pinBase + 3*PageSize - 4, length: 8},
	{op: opUnmap, addr: pinBase + PageSize, length: PageSize},
	{op: opLoad, addr: pinBase + PageSize, length: 1},
	{op: opRestore, snap: 0},
	{op: opClone},
	{op: opStore, addr: pinBase + 0x30, data: []byte("parent")},
	{op: opStore, side: 1, addr: pinBase + 0x30, data: []byte("child")},
	{op: opStore, side: 1, addr: pinBase + 9*PageSize + 0x100, data: []byte("fresh")},
	{op: opKRead, addr: pinBase + 0x30, length: 8},
	{op: opKRead, side: 1, addr: pinBase + 0x30, length: 8},
	{op: opSnapshot, side: 1, snap: 1},
	{op: opUnmap, addr: pinBase + 8*PageSize, length: 2 * PageSize},
	{op: opMap, addr: pinBase + PageSize, length: PageSize, perm: PermRWX, pkey: 4},
	{op: opRestore, side: 1, snap: 1},
	{op: opKLoadString, side: 1, addr: pinBase + 0x10, length: 64},
	{op: opSnapshot, snap: -1},
	{op: opSnapshot, snap: 3},
	{op: opProtect, addr: pinBase + 8*PageSize, length: PageSize, perm: PermRW},
}

// pinTranscript runs pinScript and returns one line per step: the
// operation, its result and both sides' StateHash.
func pinTranscript() []string {
	r := newASRun()
	var out []string
	for i, s := range pinScript {
		res, err := r.apply(s)
		if err != nil {
			res = err.Error()
		}
		var h1 uint64
		if r.sides[1] != nil {
			h1 = r.sides[1].StateHash()
		}
		line := fmt.Sprintf("%2d %d %-11s %#016x %#016x %s", i, s.side, s.op, r.sides[0].StateHash(), h1, res)
		out = append(out, strings.TrimRight(line, " "))
	}
	return out
}

// TestASStateHashPinned pins the StateHash of both address spaces after
// every step of pinScript, every read's result and every snapshot's
// Copied/Shared counts. Recordings and checkpoint hashes depend on
// those values, so a change to how pages are stored or shared must
// leave all of them as they are.
func TestASStateHashPinned(t *testing.T) {
	got := pinTranscript()
	want := strings.Split(strings.Trim(pinnedTranscript, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("transcript has %d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("step %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

const pinnedTranscript = `
 0 0 map         0x33c62ea9d767f20a 0x0000000000000000
 1 0 map         0x7a52ead06c4c559c 0x0000000000000000
 2 0 map         0x166c2571f3b458c1 0x0000000000000000
 3 0 load        0x166c2571f3b458c1 0x0000000000000000 00000000000000000000000000000000
 4 0 store       0x0f3b5a6b56804d37 0x0000000000000000
 5 0 store       0x5187bbaace60a447 0x0000000000000000
 6 0 kstore      0xf0a12348095bed10 0x0000000000000000
 7 0 fetch       0xf0a12348095bed10 0x0000000000000000 00000f05c300
 8 0 fetchline   0xf0a12348095bed10 0x0000000000000000 gen 13 00000000000000000000000000000000000000000000000000000000000000000f05c30000000000000000000000000000000000000000000000000000000000
 9 0 fetchline   0xf0a12348095bed10 0x0000000000000000 gen 6 00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
10 0 store       0xf0a12348095bed10 0x0000000000000000 memory fault: write at 0x14000 (permission)
11 0 protect     0x9f728488a5901da7 0x0000000000000000
12 0 protectkey  0x7e9db6fe4c51ede5 0x0000000000000000
13 0 store       0x7e9db6fe4c51ede5 0x0000000000000000 memory fault: write at 0x18008 (pkey)
14 0 store       0x5e37b695c2ac0c52 0x0000000000000000
15 0 snapshot    0x5e37b695c2ac0c52 0x0000000000000000 copied 9 shared 0
16 0 store       0x5697811f29336e00 0x0000000000000000
17 0 kstore      0xa013bdc3729a3dde 0x0000000000000000
18 0 snapshot    0xa013bdc3729a3dde 0x0000000000000000 copied 3 shared 6
19 0 loadu64     0xa013bdc3729a3dde 0x0000000000000000 0x6c64646172747300
20 0 kloadstring 0xa013bdc3729a3dde 0x0000000000000000 "hello"
21 0 kread       0xa013bdc3729a3dde 0x0000000000000000 0000000000000000
22 0 unmap       0xd1275b53d8a3fd49 0x0000000000000000
23 0 load        0xd1275b53d8a3fd49 0x0000000000000000 memory fault: read at 0x11000 (unmapped)
24 0 restore     0x5e37b695c2ac0c52 0x0000000000000000
25 0 clone       0x5e37b695c2ac0c52 0x5e37b695c2ac0c52
26 0 store       0xc210814dd66ed258 0x5e37b695c2ac0c52
27 1 store       0xc210814dd66ed258 0x687f9ed247338a66
28 1 store       0xc210814dd66ed258 0x2718f455ae83959e
29 0 kread       0xc210814dd66ed258 0x2718f455ae83959e 706172656e740000
30 1 kread       0xc210814dd66ed258 0x2718f455ae83959e 6368696c64000000
31 1 snapshot    0xc210814dd66ed258 0x2718f455ae83959e copied 3 shared 6
32 0 unmap       0x719adb3ac31351c9 0x2718f455ae83959e
33 0 map         0x9865b42773639b10 0x2718f455ae83959e
34 1 restore     0x9865b42773639b10 0xa013bdc3729a3dde
35 1 kloadstring 0x9865b42773639b10 0xa013bdc3729a3dde "hello"
36 0 snapshot    0x9865b42773639b10 0xa013bdc3729a3dde copied 7 shared 0
37 0 snapshot    0x9865b42773639b10 0xa013bdc3729a3dde copied 0 shared 7
38 0 protect     0x9865b42773639b10 0xa013bdc3729a3dde memory fault: write at 0x18000 (unmapped)
`
