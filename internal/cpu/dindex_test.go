package cpu

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// refEntry is one decoded instruction in the linear-scan oracle: its
// offset and the tag stored in its immediate.
type refEntry struct {
	off uint8
	tag int64
}

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
// short of it), drops and line invalidations over two adjacent lines,
// and after every step checks decodedAt at every offset, the entry it
// indexes and the invalidation count against a linear-scan oracle.
func TestDecodedIndexProperty(t *testing.T) {
	const base = 0x1000 / cacheLineSize
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := buildCore(t, nil)
		lines := [2]*cacheLine{c.slot(base), c.slot(base + 1)}
		for i, ln := range lines {
			if err := c.fill(ln, base+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		var ref [2]refLine
		var invalidations uint64
		for step := 0; step < 2000; step++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "install"
				l := rng.Intn(2)
				off := uint8(rng.Intn(cacheLineSize - MaxInstLen + 1))
				tag := int64(step)
				inst := Inst{Op: OpNop, Len: uint8(1 + rng.Intn(MaxInstLen)), Imm: tag}
				c.installDecoded((base+uint64(l))*cacheLineSize+uint64(off), inst)
				ref[l].drop(off)
				ref[l].entries = append(ref[l].entries, refEntry{off, tag})
			case r < 7:
				op = "straddling install"
				off := uint8(49 + rng.Intn(15))
				tag := int64(step)
				inst := Inst{Op: OpNop, Len: uint8(1 + rng.Intn(MaxInstLen)), Imm: tag}
				c.installDecoded(base*cacheLineSize+uint64(off), inst)
				ref[0].drop(off)
				ref[0].entries = append(ref[0].entries, refEntry{off, tag})
				if int(off)+int(inst.Len) > cacheLineSize && !slices.Contains(ref[1].straddlers, off) {
					ref[1].straddlers = append(ref[1].straddlers, off)
				}
			case r < 9:
				op = "drop"
				l := rng.Intn(2)
				if len(ref[l].entries) == 0 {
					continue
				}
				off := ref[l].entries[rng.Intn(len(ref[l].entries))].off
				lines[l].dropDecoded(lines[l].decodedAt(off))
				ref[l].drop(off)
			default:
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
				if err := c.fill(lines[l], base+uint64(l)); err != nil {
					t.Fatal(err)
				}
			}
			for l, ln := range lines {
				checkDecodedIndex(t, ln, &ref[l], seed, step, op)
			}
			if c.DecodeStats.Invalidations != invalidations {
				t.Fatalf("seed %d step %d (%s): %d invalidations, oracle %d",
					seed, step, op, c.DecodeStats.Invalidations, invalidations)
			}
		}
	}
}

// checkDecodedIndex compares one line's index against its oracle.
func checkDecodedIndex(t *testing.T, ln *cacheLine, ref *refLine, seed int64, step int, op string) {
	t.Helper()
	if len(ln.decoded) != len(ref.entries) || bits.OnesCount64(ln.decodedMask) != len(ln.decoded) {
		t.Fatalf("seed %d step %d (%s): %d entries, mask has %d bits, oracle %d",
			seed, step, op, len(ln.decoded), bits.OnesCount64(ln.decodedMask), len(ref.entries))
	}
	for off := uint8(0); off < cacheLineSize; off++ {
		i, j := ln.decodedAt(off), ref.find(off)
		if (i < 0) != (j < 0) {
			t.Fatalf("seed %d step %d (%s): offset %d: index %d, oracle %d", seed, step, op, off, i, j)
		}
		if i >= 0 && (ln.decoded[i].off != off || ln.decoded[i].inst.Imm != ref.entries[j].tag) {
			t.Fatalf("seed %d step %d (%s): offset %d: entry at %d is (off %d, tag %d), oracle tag %d",
				seed, step, op, off, i, ln.decoded[i].off, ln.decoded[i].inst.Imm, ref.entries[j].tag)
		}
	}
}
