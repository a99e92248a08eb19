package cpu

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"

	"k23/internal/mem"
)

// Checkpoint support. A core's architectural state — registers, PKRU,
// TLS, retirement counters, and crucially the instruction cache — can
// be snapshotted and restored in place.
//
// The I-cache is architectural here, not an optimisation: the P5
// pitfall family executes deliberately stale line contents, so a
// restored core must resume with exactly the lines (and fill-time
// generations) it had, or post-restore execution diverges from the
// recorded run. The decode cache and the superblock JIT, by contrast,
// are proven semantically transparent by the difftest battery, so a
// restore simply drops them cold — they refill on demand with no
// observable effect beyond their own statistics counters.

// ICacheLine is the exported snapshot of one resident I-cache line.
type ICacheLine struct {
	Base uint64
	Gen  uint64
	Data [cacheLineSize]byte
}

// CoreState is the architectural snapshot of a core.
type CoreState struct {
	Ctx  Context
	PKRU mem.PKRU
	TLS  uint64

	Cycles        uint64
	Insts         uint64
	CMCViolations uint64
	LastCMC       *CMCEvent

	DecodeStats DecodeCacheStats
	JITStats    JITStats

	ICache []ICacheLine
}

// SnapshotState captures the core's architectural state.
func (c *Core) SnapshotState() CoreState {
	s := CoreState{
		Ctx:           c.Ctx,
		PKRU:          c.PKRU,
		TLS:           c.TLS,
		Cycles:        c.Cycles,
		Insts:         c.Insts,
		CMCViolations: c.CMCViolations,
		DecodeStats:   c.DecodeStats,
		JITStats:      c.JITStats,
	}
	if c.LastCMC != nil {
		ev := CMCEvent{
			Addr:   c.LastCMC.Addr,
			Cached: append([]byte(nil), c.LastCMC.Cached...),
			Fresh:  append([]byte(nil), c.LastCMC.Fresh...),
		}
		s.LastCMC = &ev
	}
	for pn, pg := range c.pages {
		for i, ln := range pg.lines {
			if ln != nil && ln.epoch == c.flushEpoch {
				base := (pn*linesPerPage + uint64(i)) * cacheLineSize
				s.ICache = append(s.ICache, ICacheLine{Base: base, Gen: ln.gen, Data: ln.data})
			}
		}
	}
	return s
}

// RestoreState rewinds the core to the snapshot, in place: the Core
// keeps its identity (the kernel's thread holds the pointer, and the
// trace hash, TID, cache-off flags and AS binding are live
// configuration owned by the caller). The I-cache is rebuilt exactly;
// the decode and superblock caches restart cold, with their epoch
// advanced so no stale compiled state can be considered validated.
func (c *Core) RestoreState(s CoreState) {
	c.Ctx = s.Ctx
	c.PKRU = s.PKRU
	c.TLS = s.TLS
	c.Cycles = s.Cycles
	c.Insts = s.Insts
	c.CMCViolations = s.CMCViolations
	c.LastCMC = nil
	if s.LastCMC != nil {
		ev := CMCEvent{
			Addr:   s.LastCMC.Addr,
			Cached: append([]byte(nil), s.LastCMC.Cached...),
			Fresh:  append([]byte(nil), s.LastCMC.Fresh...),
		}
		c.LastCMC = &ev
	}
	c.DecodeStats = s.DecodeStats
	c.JITStats = s.JITStats

	c.resetCodeCache()
	for _, line := range s.ICache {
		ln := c.slot(line.Base / cacheLineSize)
		ln.data, ln.gen, ln.epoch = line.Data, line.Gen, c.flushEpoch
	}
	c.jitSeq++
}

// Hash returns a deterministic FNV-1a hash of the architectural state:
// registers, flags, PKRU, TLS, retirement counters, the last CMC event
// and the I-cache lines in address order. The decode-cache and JIT
// statistics are left out, so a jitted and an interpreted run of the
// same program hash alike.
func (s *CoreState) Hash() uint64 {
	h := fnv.New64a()
	for r, v := range s.Ctx.R {
		fmt.Fprintf(h, "r%d %#x\n", r, v)
	}
	fmt.Fprintf(h, "rip %#x fl %#x pkru %#x tls %#x cyc %d in %d cmc %d\n",
		s.Ctx.RIP, s.Ctx.Flags(), uint32(s.PKRU), s.TLS, s.Cycles, s.Insts, s.CMCViolations)
	if ev := s.LastCMC; ev != nil {
		fmt.Fprintf(h, "lastcmc %#x %x %x\n", ev.Addr, ev.Cached, ev.Fresh)
	}
	lines := slices.Clone(s.ICache)
	slices.SortFunc(lines, func(a, b ICacheLine) int { return cmp.Compare(a.Base, b.Base) })
	for _, ln := range lines {
		fmt.Fprintf(h, "ic %#x %d ", ln.Base, ln.Gen)
		h.Write(ln.Data[:])
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
