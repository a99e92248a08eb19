package mem

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// FuzzAddressSpace runs fuzz-decoded asSteps against an AddressSpace
// and against modelRun, a flat reference that copies every page
// eagerly on map, clone, snapshot and restore. After every step it
// checks that:
//   - the step's result and fault match the model's;
//   - both sides' pages, permissions, keys, generations, bytes, regions
//     and generation clock match the model's;
//   - every snapshot taken so far still restores to the StateHash its
//     address space had when it was taken;
//   - the zero array that pages without data read as is still all zeros.
//
// Parent and clone are checked against separate models, so a store
// that leaks from one side into the other fails too.
func FuzzAddressSpace(f *testing.F) {
	seed := encodeSteps(pinScript)
	if !reflect.DeepEqual(decodeSteps(seed), pinScript) {
		f.Fatal("pinScript does not survive encodeSteps/decodeSteps")
	}
	f.Add(seed)
	f.Add(encodeSteps(pinScript[:16]))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, m := newASRun(), newModelRun()
		var hashes []uint64
		for i, s := range decodeSteps(in) {
			res, err := r.apply(s)
			mres, merr := m.apply(s)
			if res != mres || fmt.Sprint(err) != fmt.Sprint(merr) {
				t.Fatalf("step %d %+v: got %q, %v; model %q, %v", i, s, res, err, mres, merr)
			}
			if s.op == opSnapshot {
				hashes = append(hashes, r.space(s).StateHash())
			}
			for side, a := range r.sides {
				if a != nil {
					if diff := m.sides[side].diff(a); diff != "" {
						t.Fatalf("step %d %+v: side %d: %s", i, s, side, diff)
					}
				}
			}
			for k, st := range r.snaps {
				fresh := NewAddressSpace()
				fresh.RestoreState(st)
				if got := fresh.StateHash(); got != hashes[k] {
					t.Fatalf("step %d %+v: snapshot %d restores to hash %#x, taken at %#x", i, s, k, got, hashes[k])
				}
			}
			if zeroPage != ([PageSize]byte{}) {
				t.Fatalf("step %d %+v: the zero page was written", i, s)
			}
		}
	})
}

// fuzzBase is where decoded steps map and access memory: page ops start
// in its first 16 pages, byte ops in its first 64 KiB.
const fuzzBase = pinBase

// maxFuzzSteps bounds one input's run.
const maxFuzzSteps = 48

// decodeSteps turns fuzz input into steps. Each step is a 6-byte
// header followed, for a store, by its data:
//
//	h[0]    op (low 7 bits, modulo numASOps) and side (top bit)
//	h[1:3]  little-endian v: a page op maps page v&15, one byte off
//	        page alignment if v&16; a byte op's address is fuzzBase+v
//	h[3]    a page op's length in 512-byte units (low 6 bits); a
//	        read's length or KLoadString's max; a store's data length
//	h[4]    perm (low 3 bits) and pkey (top 4 bits)
//	h[5]    pkru for stores and reads; a snapshot's prev index plus
//	        one (0: no prev); a restore's snapshot index
func decodeSteps(in []byte) []asStep {
	var steps []asStep
	for len(in) >= 6 && len(steps) < maxFuzzSteps {
		h := in[:6]
		in = in[6:]
		s := asStep{op: asOp(h[0]&0x7f) % numASOps, side: h[0] >> 7}
		v := uint64(h[1]) | uint64(h[2])<<8
		switch s.op {
		case opMap, opUnmap, opProtect, opProtectKey:
			s.addr = fuzzBase + (v&15)*PageSize + (v>>4)&1
			s.length = uint64(h[3]&63) * 512
			s.perm, s.pkey = Perm(h[4]&7), int(h[4]>>4)
		case opStore, opKStore:
			s.addr = fuzzBase + v
			n := min(int(h[3]), len(in))
			s.data, in = in[:n:n], in[n:]
			s.pkru = PKRU(h[5])
		case opLoad, opKRead, opLoadU64, opKLoadString, opFetch:
			s.addr, s.length, s.pkru = fuzzBase+v, uint64(h[3]), PKRU(h[5])
		case opFetchLine:
			s.addr = fuzzBase + v
		case opSnapshot:
			s.snap = int(h[5]) - 1
		case opRestore:
			s.snap = int(h[5])
		}
		steps = append(steps, s)
	}
	return steps
}

// encodeSteps is decodeSteps' inverse for steps whose fields are in
// the ranges it decodes to.
func encodeSteps(steps []asStep) []byte {
	var out []byte
	for _, s := range steps {
		h := [6]byte{byte(s.op) | s.side<<7}
		v := s.addr - fuzzBase
		switch s.op {
		case opMap, opUnmap, opProtect, opProtectKey:
			v = v/PageSize | (v%PageSize)<<4
			h[3] = byte(s.length / 512)
			h[4] = byte(s.perm) | byte(s.pkey)<<4
		case opStore, opKStore:
			h[3] = byte(len(s.data))
		default:
			h[3] = byte(s.length)
		}
		h[1], h[2] = byte(v), byte(v>>8)
		h[5] = byte(s.pkru)
		switch s.op {
		case opSnapshot:
			h[5] = byte(s.snap + 1)
		case opRestore:
			h[5] = byte(s.snap)
		}
		out = append(append(out, h[:]...), s.data...)
	}
	return out
}

// modelPage is one page of the reference model, data included.
type modelPage struct {
	perm Perm
	pkey int
	gen  uint64
	data [PageSize]byte
}

// modelAS is the reference model of an AddressSpace. Pages are copied
// in full wherever the real one shares them.
type modelAS struct {
	pages    map[uint64]*modelPage
	regions  []Region
	genClock uint64
}

func (m *modelAS) clone() *modelAS {
	c := &modelAS{pages: make(map[uint64]*modelPage, len(m.pages)), regions: slices.Clone(m.regions), genClock: m.genClock}
	for pn, pg := range m.pages {
		cp := *pg
		c.pages[pn] = &cp
	}
	return c
}

// modelRun mirrors asRun on models.
type modelRun struct {
	sides [2]*modelAS
	snaps []*modelAS
}

func newModelRun() *modelRun {
	return &modelRun{sides: [2]*modelAS{{pages: make(map[uint64]*modelPage)}}}
}

func (r *modelRun) apply(s asStep) (string, error) {
	m := r.sides[0]
	if s.side == 1 && r.sides[1] != nil {
		m = r.sides[1]
	}
	switch s.op {
	case opMap:
		if s.addr%PageSize != 0 {
			return "", fmt.Errorf("mem: map address %#x is not page-aligned", s.addr)
		}
		if s.length == 0 {
			return "", fmt.Errorf("mem: map length is zero")
		}
		end := s.addr + (s.length+PageSize-1)/PageSize*PageSize
		for pa := s.addr; pa < end; pa += PageSize {
			m.genClock++
			m.pages[pa/PageSize] = &modelPage{perm: s.perm, gen: m.genClock}
		}
		m.carve(s.addr, end)
		m.regions = append(m.regions, Region{Start: s.addr, End: end, Perm: s.perm, Name: fmt.Sprintf("r%d", s.pkey)})
		sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
		return "", nil
	case opUnmap:
		if s.addr%PageSize != 0 {
			return "", fmt.Errorf("mem: unmap address %#x is not page-aligned", s.addr)
		}
		end := s.addr + (s.length+PageSize-1)/PageSize*PageSize
		for pa := s.addr; pa < end; pa += PageSize {
			delete(m.pages, pa/PageSize)
		}
		m.carve(s.addr, end)
		return "", nil
	case opProtect, opProtectKey:
		if s.op == opProtectKey && (s.pkey < 0 || s.pkey >= NumPkeys) {
			return "", fmt.Errorf("mem: invalid protection key %d", s.pkey)
		}
		if s.addr%PageSize != 0 {
			return "", fmt.Errorf("mem: protect address %#x is not page-aligned", s.addr)
		}
		end := s.addr + (s.length+PageSize-1)/PageSize*PageSize
		for pa := s.addr; pa < end; pa += PageSize {
			pg := m.pages[pa/PageSize]
			if pg == nil {
				return "", &Fault{Addr: pa, Access: AccessWrite, Cause: CauseUnmapped}
			}
			m.genClock++
			pg.perm, pg.gen = s.perm, m.genClock
		}
		if s.op == opProtectKey {
			for pa := s.addr; pa < end; pa += PageSize {
				m.pages[pa/PageSize].pkey = s.pkey
			}
		}
		return "", nil
	case opStore, opKStore:
		if len(s.data) > 0 {
			for _, addr := range []uint64{s.addr, s.addr + uint64(len(s.data)) - 1} {
				if f := m.check(addr, AccessWrite, s.pkru, s.op == opKStore); f != nil {
					return "", f
				}
			}
		}
		for i, b := range s.data {
			addr := s.addr + uint64(i)
			pg := m.pages[addr/PageSize]
			if i == 0 || addr%PageSize == 0 {
				m.genClock++
				pg.gen = m.genClock
			}
			pg.data[addr%PageSize] = b
		}
		return "", nil
	case opLoad, opKRead, opFetch:
		kind := AccessRead
		if s.op == opFetch {
			kind = AccessExec
		}
		b, f := m.read(s.addr, int(s.length), kind, s.pkru, s.op == opKRead)
		if f != nil {
			return "", f
		}
		return fmt.Sprintf("%x", b), nil
	case opLoadU64:
		b, f := m.read(s.addr, 8, AccessRead, s.pkru, false)
		if f != nil {
			return "0x0", f
		}
		return fmt.Sprintf("%#x", leU64(b)), nil
	case opKLoadString:
		var out []byte
		for i := 0; i < int(s.length); i++ {
			b, f := m.read(s.addr+uint64(i), 1, AccessRead, 0, true)
			if f != nil {
				return `""`, f
			}
			if b[0] == 0 {
				break
			}
			out = append(out, b[0])
		}
		return fmt.Sprintf("%q", out), nil
	case opFetchLine:
		if f := m.check(s.addr, AccessExec, 0, false); f != nil {
			return "", f
		}
		pg := m.pages[s.addr/PageSize]
		off := s.addr % PageSize &^ 63
		return fmt.Sprintf("gen %d %x", pg.gen, pg.data[off:off+64]), nil
	case opSnapshot:
		var prev *modelAS
		if s.snap >= 0 && len(r.snaps) > 0 {
			prev = r.snaps[s.snap%len(r.snaps)]
		}
		copied, shared := 0, 0
		for pn, pg := range m.pages {
			if prev != nil && prev.pages[pn] != nil && prev.pages[pn].gen == pg.gen {
				shared++
			} else {
				copied++
			}
		}
		r.snaps = append(r.snaps, m.clone())
		return fmt.Sprintf("copied %d shared %d", copied, shared), nil
	case opRestore:
		if len(r.snaps) > 0 {
			*m = *r.snaps[s.snap%len(r.snaps)].clone()
		}
		return "", nil
	case opClone:
		r.sides[1] = m.clone()
		return "", nil
	}
	panic(fmt.Sprintf("unknown op %d", s.op))
}

// check returns the fault an access of kind to addr takes, or nil. On
// the kernel plane only a missing page faults.
func (m *modelAS) check(addr uint64, kind AccessKind, pkru PKRU, kernel bool) *Fault {
	pg := m.pages[addr/PageSize]
	fault := func(c FaultCause) *Fault { return &Fault{Addr: addr, Access: kind, Cause: c} }
	if pg == nil {
		return fault(CauseUnmapped)
	}
	if kernel {
		return nil
	}
	accessDisabled := pkru>>(2*pg.pkey)&1 != 0
	writeDisabled := pkru>>(2*pg.pkey+1)&1 != 0
	switch {
	case kind == AccessRead && pg.perm&PermRead == 0,
		kind == AccessWrite && pg.perm&PermWrite == 0,
		kind == AccessExec && pg.perm&PermExec == 0:
		return fault(CausePerm)
	case kind == AccessRead && accessDisabled,
		kind == AccessWrite && (accessDisabled || writeDisabled):
		return fault(CausePkey)
	}
	return nil
}

// read returns n bytes at addr, faulting at the first byte of the first
// page that forbids the access.
func (m *modelAS) read(addr uint64, n int, kind AccessKind, pkru PKRU, kernel bool) ([]byte, *Fault) {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint64(i)
		if i == 0 || a%PageSize == 0 {
			if f := m.check(a, kind, pkru, kernel); f != nil {
				return nil, f
			}
		}
		out[i] = m.pages[a/PageSize].data[a%PageSize]
	}
	return out, nil
}

// carve removes [start, end) from the region list, splitting the
// regions it cuts.
func (m *modelAS) carve(start, end uint64) {
	var out []Region
	for _, reg := range m.regions {
		if reg.End <= start || reg.Start >= end {
			out = append(out, reg)
			continue
		}
		if reg.Start < start {
			out = append(out, Region{Start: reg.Start, End: start, Perm: reg.Perm, Name: reg.Name})
		}
		if reg.End > end {
			out = append(out, Region{Start: end, End: reg.End, Perm: reg.Perm, Name: reg.Name})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	m.regions = out
}

// diff describes the first difference between the model and a, or
// returns "".
func (m *modelAS) diff(a *AddressSpace) string {
	if len(a.pages) != len(m.pages) {
		return fmt.Sprintf("%d pages, model %d", len(a.pages), len(m.pages))
	}
	var buf [PageSize]byte
	for pn, mp := range m.pages {
		addr := pn * PageSize
		perm, pkey, ok := a.PermAt(addr)
		if !ok || perm != mp.perm || pkey != mp.pkey || a.Gen(addr) != mp.gen {
			return fmt.Sprintf("page %#x: perm %v pkey %d gen %d mapped %v, model perm %v pkey %d gen %d",
				pn, perm, pkey, a.Gen(addr), ok, mp.perm, mp.pkey, mp.gen)
		}
		if err := a.KRead(addr, buf[:]); err != nil || buf != mp.data {
			return fmt.Sprintf("page %#x: bytes differ from the model (%v)", pn, err)
		}
	}
	if !slices.Equal(a.Regions(), m.regions) {
		return fmt.Sprintf("regions %v, model %v", a.Regions(), m.regions)
	}
	if a.genClock != m.genClock {
		return fmt.Sprintf("genClock %d, model %d", a.genClock, m.genClock)
	}
	return ""
}
