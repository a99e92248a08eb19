package cpu

import (
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
	const base = 0x1000 / cacheLineSize
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := buildCore(t, nil)
		lines := [2]*cacheLine{c.slot(base), c.slot(base + 1)}
		var ref [2]refLine
		var slotGen [2]uint64 // each line's generation at its last fill
		fill := func(l int) {
			slotGen[l] = c.AS.Gen((base + uint64(l)) * cacheLineSize)
			if err := c.fill(lines[l], base+uint64(l)); err != nil {
				t.Fatal(err)
			}
		}
		// newGen stores to the lines' page outside both lines, so each
		// line's next fill reads a new generation of the same bytes.
		newGen := func() {
			if err := c.AS.KStore(0x1800, []byte{0}); err != nil {
				t.Fatal(err)
			}
		}
		install := func(l int, off, n uint8, tag int64) {
			inst := Inst{Op: OpNop, Len: n, Imm: tag}
			c.installDecoded((base+uint64(l))*cacheLineSize+uint64(off), inst)
			e := refEntry{off: off, len: inst.Len, tag: tag, lineGen: [2]uint64{slotGen[l], 0}}
			if e.straddles() {
				e.lineGen[1] = slotGen[l+1]
				if !slices.Contains(ref[l+1].straddlers, off) {
					ref[l+1].straddlers = append(ref[l+1].straddlers, off)
				}
			}
			ref[l].drop(off)
			ref[l].entries = append(ref[l].entries, e)
		}
		randLen := func() uint8 { return uint8(1 + rng.Intn(MaxInstLen)) }
		fill(0)
		fill(1)
		var invalidations, hits uint64
		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(12); {
			case r < 4:
				op = "install"
				install(rng.Intn(2), uint8(rng.Intn(straddleBase+1)), randLen(), int64(step))
			case r < 7:
				op = "straddling install"
				install(0, uint8(49+rng.Intn(15)), randLen(), int64(step))
			case r < 9:
				op = "drop"
				l := rng.Intn(2)
				if len(ref[l].entries) == 0 {
					continue
				}
				off := ref[l].entries[rng.Intn(len(ref[l].entries))].off
				lines[l].dropDecoded(off)
				ref[l].drop(off)
			case r < 10:
				op = "invalidate"
				l := rng.Intn(2)
				c.invalidateLine(lines[l], base+uint64(l))
				invalidations += uint64(len(ref[l].entries))
				ref[l].entries = nil
				if l == 1 {
					for _, off := range ref[1].straddlers {
						if ref[0].drop(off) {
							invalidations++
						}
					}
					ref[1].straddlers = nil
				}
				// A refill, as the next fetch would do.
				fill(l)
			case r < 11:
				op = "refill at a new generation, install elsewhere"
				l := rng.Intn(2)
				newGen()
				fill(l)
				off := uint8(rng.Intn(straddleBase + 1))
				for ref[l].find(off) >= 0 && len(ref[l].entries) <= straddleBase {
					off = uint8(rng.Intn(straddleBase + 1))
				}
				install(l, off, randLen(), int64(step))
			default:
				op = "straddling install at a new next-line generation"
				newGen()
				fill(1)
				off := uint8(straddleBase + 1 + rng.Intn(MaxInstLen-1))
				short := cacheLineSize + 1 - int(off) // the shortest encoding that straddles
				install(0, off, uint8(short+rng.Intn(MaxInstLen-short+1)), int64(step))
			}
			for l, ln := range lines {
				checkDecodedIndex(t, ln, &ref[l], seed, step, op)
				hits += checkLookups(t, c, base+uint64(l), &ref[l], slotGen, seed, step, op)
			}
			if c.DecodeStats.Invalidations != invalidations || c.DecodeStats.Hits != hits {
				t.Fatalf("seed %d step %d (%s): %d invalidations and %d hits, oracle %d and %d",
					seed, step, op, c.DecodeStats.Invalidations, c.DecodeStats.Hits, invalidations, hits)
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

// checkDecodedIndex compares one line's index against its oracle.
func checkDecodedIndex(t *testing.T, ln *cacheLine, ref *refLine, seed int64, step int, op string) {
	t.Helper()
	if len(ln.insts) != len(ref.entries) || bits.OnesCount64(ln.decodedMask) != len(ln.insts) {
		t.Fatalf("seed %d step %d (%s): %d entries, mask has %d bits, oracle %d",
			seed, step, op, len(ln.insts), bits.OnesCount64(ln.decodedMask), len(ref.entries))
	}
	for off := uint8(0); off < cacheLineSize; off++ {
		i, j := ln.decodedAt(off), ref.find(off)
		if (i < 0) != (j < 0) {
			t.Fatalf("seed %d step %d (%s): offset %d: index %d, oracle %d", seed, step, op, off, i, j)
		}
		if i >= 0 && ln.insts[i].Imm != ref.entries[j].tag {
			t.Fatalf("seed %d step %d (%s): offset %d: entry at %d has tag %d, oracle tag %d",
				seed, step, op, off, i, ln.insts[i].Imm, ref.entries[j].tag)
		}
	}
}
