package cpu

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refEntry is one decoded instruction in the linear-scan oracle: its
// offset, its length, the tag stored in its immediate and the write
// generation of each line its encoding covers when it was decoded.
type refEntry struct {
	off     uint8
	len     uint8
	tag     int64
	lineGen [2]uint64
}

// straddles reports whether the entry's encoding runs into the next line.
func (e refEntry) straddles() bool { return int(e.off)+int(e.len) > cacheLineSize }

// refLine is the oracle for one line: its entries in no order, found by
// a linear scan, and the offsets in the previous line whose install
// straddled into it.
type refLine struct {
	entries    []refEntry
	straddlers []uint8
}

func (r *refLine) find(off uint8) int {
	for i, e := range r.entries {
		if e.off == off {
			return i
		}
	}
	return -1
}

func (r *refLine) drop(off uint8) bool {
	if i := r.find(off); i >= 0 {
		r.entries = slices.Delete(r.entries, i, i+1)
		return true
	}
	return false
}

// TestDecodedIndexProperty drives random installs, straddling installs
// (offsets 49–63, so some run into the next line and some stop just
// short of it), drops, line invalidations and refills at a new write
// generation over two adjacent lines. A refill of either line is
// followed by an install: in that line at an offset it holds no entry
// for, or a straddling one into it from the line before. After every
// step it checks decodedAt at every offset, the entry it indexes and
// the invalidation count against a linear-scan oracle, and, from the
// oracle's per-entry generations, whether lookupDecoded hits at every
// offset and what it returns.
func TestDecodedIndexProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		decodedIndexProperty(t, seed, []*Core{buildCore(t, nil)})
	}
}

// TestDecodedIndexPropertyTwoCores runs the same steps on two cores over
// two address spaces that start with the same bytes, each step on a
// core picked at random and each core checked against its own oracle.
// The cores install different tags at the same offsets, and a step can
// rewrite the next line of one core only, so straddling installs into
// it differ between the cores while the first line's bytes stay equal.
// Each core must hit exactly its own instructions.
func TestDecodedIndexPropertyTwoCores(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cores := []*Core{buildCore(t, nil), buildCore(t, nil)}
		cores[0].Lines = make(Lines)
		cores[1].Lines = cores[0].Lines
		decodedIndexProperty(t, seed, cores)
	}
}

// indexCore is one core of decodedIndexProperty with its oracle.
type indexCore struct {
	c                   *Core
	lines               [2]*cacheLine
	ref                 [2]refLine
	slotGen             [2]uint64 // each line's generation at its last fill
	invalidations, hits uint64
}

func decodedIndexProperty(t *testing.T, seed int64, cores []*Core) {
	const base = 0x1000 / cacheLineSize
	rng := rand.New(rand.NewSource(seed))
	ics := make([]*indexCore, len(cores))
	for i, c := range cores {
		ics[i] = &indexCore{c: c, lines: [2]*cacheLine{c.slot(base), c.slot(base + 1)}}
	}
	fill := func(ic *indexCore, l int) {
		ic.slotGen[l] = ic.c.AS.Gen((base + uint64(l)) * cacheLineSize)
		if err := ic.c.fill(ic.lines[l], base+uint64(l)); err != nil {
			t.Fatal(err)
		}
	}
	// store writes b at addr in one core's address space: at 0x1800,
	// outside both lines, it gives each line's next fill a new
	// generation of the same bytes.
	store := func(ic *indexCore, addr uint64, b byte) {
		if err := ic.c.AS.KStore(addr, []byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	install := func(ic *indexCore, l int, off, n uint8, tag int64) {
		inst := Inst{Op: OpNop, Len: n, Imm: tag}
		ic.c.installDecoded((base+uint64(l))*cacheLineSize+uint64(off), inst)
		e := refEntry{off: off, len: inst.Len, tag: tag, lineGen: [2]uint64{ic.slotGen[l], 0}}
		if e.straddles() {
			e.lineGen[1] = ic.slotGen[l+1]
			if !slices.Contains(ic.ref[l+1].straddlers, off) {
				ic.ref[l+1].straddlers = append(ic.ref[l+1].straddlers, off)
			}
		}
		ic.ref[l].drop(off)
		ic.ref[l].entries = append(ic.ref[l].entries, e)
	}
	randLen := func() uint8 { return uint8(1 + rng.Intn(MaxInstLen)) }
	straddlingInstall := func(ic *indexCore, step int) {
		off := uint8(straddleBase + 1 + rng.Intn(MaxInstLen-1))
		short := cacheLineSize + 1 - int(off) // the shortest encoding that straddles
		install(ic, 0, off, uint8(short+rng.Intn(MaxInstLen-short+1)), int64(step))
	}
	for _, ic := range ics {
		fill(ic, 0)
		fill(ic, 1)
	}
	for step := 0; step < 2000; step++ {
		ic := ics[0]
		if len(ics) > 1 {
			ic = ics[rng.Intn(len(ics))]
		}
		var op string
		switch r := rng.Intn(12); {
		case r < 4:
			op = "install"
			install(ic, rng.Intn(2), uint8(rng.Intn(straddleBase+1)), randLen(), int64(step))
		case r < 7:
			op = "straddling install"
			install(ic, 0, uint8(49+rng.Intn(15)), randLen(), int64(step))
		case r < 9:
			op = "drop"
			l := rng.Intn(2)
			if len(ic.ref[l].entries) == 0 {
				continue
			}
			off := ic.ref[l].entries[rng.Intn(len(ic.ref[l].entries))].off
			ic.lines[l].dropDecoded(off)
			ic.ref[l].drop(off)
		case r < 10:
			op = "invalidate"
			l := rng.Intn(2)
			ic.c.invalidateLine(ic.lines[l], base+uint64(l))
			ic.invalidations += uint64(len(ic.ref[l].entries))
			ic.ref[l].entries = nil
			if l == 1 {
				for _, off := range ic.ref[1].straddlers {
					if ic.ref[0].drop(off) {
						ic.invalidations++
					}
				}
				ic.ref[1].straddlers = nil
			}
			// A refill, as the next fetch would do.
			fill(ic, l)
		case r < 11:
			op = "refill at a new generation, install elsewhere"
			l := rng.Intn(2)
			store(ic, 0x1800, 0)
			fill(ic, l)
			off := uint8(rng.Intn(straddleBase + 1))
			for ic.ref[l].find(off) >= 0 && len(ic.ref[l].entries) <= straddleBase {
				off = uint8(rng.Intn(straddleBase + 1))
			}
			install(ic, l, off, randLen(), int64(step))
		case len(ics) > 1 && rng.Intn(2) == 0:
			op = "straddling install into rewritten next-line bytes"
			store(ic, (base+2)*cacheLineSize-1, byte(rng.Intn(4)))
			fill(ic, 1)
			straddlingInstall(ic, step)
		default:
			op = "straddling install at a new next-line generation"
			store(ic, 0x1800, 0)
			fill(ic, 1)
			straddlingInstall(ic, step)
		}
		for k, ic := range ics {
			what := fmt.Sprintf("%s, core %d", op, k)
			for l, ln := range ic.lines {
				checkDecodedIndex(t, ln, &ic.ref[l], seed, step, what)
				ic.hits += checkLookups(t, ic.c, base+uint64(l), &ic.ref[l], ic.slotGen, seed, step, what)
			}
			if ic.c.DecodeStats.Invalidations != ic.invalidations || ic.c.DecodeStats.Hits != ic.hits {
				t.Fatalf("seed %d step %d (%s): %d invalidations and %d hits, oracle %d and %d",
					seed, step, what, ic.c.DecodeStats.Invalidations, ic.c.DecodeStats.Hits,
					ic.invalidations, ic.hits)
			}
		}
	}
}

// checkLookups looks up every offset of line lineNum (both lines stay
// resident) and checks each result against the oracle: an entry hits
// exactly when every line it covers still holds the generation it was
// decoded at. It returns the number of hits.
func checkLookups(t *testing.T, c *Core, lineNum uint64, ref *refLine, slotGen [2]uint64,
	seed int64, step int, op string) uint64 {
	t.Helper()
	var hits uint64
	l := lineNum - 0x1000/cacheLineSize
	for off := uint8(0); off < cacheLineSize; off++ {
		inst, hit := c.lookupDecoded(lineNum*cacheLineSize + uint64(off))
		want := false
		if j := ref.find(off); j >= 0 {
			e := ref.entries[j]
			want = e.lineGen[0] == slotGen[l] && (!e.straddles() || e.lineGen[1] == slotGen[l+1])
			if want && inst.Imm != e.tag {
				t.Fatalf("seed %d step %d (%s): line %d offset %d: hit tag %d, oracle tag %d",
					seed, step, op, l, off, inst.Imm, e.tag)
			}
		}
		if hit != want {
			t.Fatalf("seed %d step %d (%s): line %d offset %d: hit %v, oracle %v", seed, step, op, l, off, hit, want)
		}
		if hit {
			hits++
		}
	}
	return hits
}

// checkDecodedIndex compares one line's present and live masks against
// its oracle, and each live entry, read through the shared line.
func checkDecodedIndex(t *testing.T, ln *cacheLine, ref *refLine, seed int64, step int, op string) {
	t.Helper()
	if bits.OnesCount64(ln.decodedMask) != len(ref.entries) || ln.liveMask&^ln.decodedMask != 0 {
		t.Fatalf("seed %d step %d (%s): present mask %#x, live mask %#x, oracle %d entries",
			seed, step, op, ln.decodedMask, ln.liveMask, len(ref.entries))
	}
	for off := uint8(0); off < cacheLineSize; off++ {
		present, j := ln.decodedMask&(1<<off) != 0, ref.find(off)
		if present != (j >= 0) {
			t.Fatalf("seed %d step %d (%s): offset %d: present %v, oracle %d", seed, step, op, off, present, j)
		}
		if inst, ok := ln.live(off); ok && inst.Imm != ref.entries[j].tag {
			t.Fatalf("seed %d step %d (%s): offset %d: live entry has tag %d, oracle tag %d",
				seed, step, op, off, inst.Imm, ref.entries[j].tag)
		}
	}
}
