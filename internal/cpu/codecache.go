package cpu

import (
	"math/bits"
	"slices"

	"k23/internal/mem"
)

// This file holds the core's code cache: the I-cache lines, the decoded
// instructions and the superblock index, all in one structure keyed by
// page. A page's entry appears the first time the core fetches from,
// decodes in, counts an anchor in or forms a block over that page, so
// the cache grows only with the code the core touches. Each line slot
// carries everything the core knows about its 64 bytes: the resident
// bytes, the decoded instructions that start there, the superblocks
// entered there and the superblocks that cover it from an earlier line.
// A fetch, a decode-cache hit and a block dispatch are therefore a page
// compare, an array index and a bit count or a short scan, and a store
// to a page that never held code stops after one page check.

// cacheLineSize is the I-cache line size in bytes.
const cacheLineSize = 64

// linesPerPage is the number of I-cache lines in one page.
const linesPerPage = mem.PageSize / cacheLineSize

// straddleBase is the lowest offset an instruction can start at and
// still run into the next line (MaxInstLen < cacheLineSize).
const straddleBase = cacheLineSize - MaxInstLen

// noPage is a page number no address has; it empties the store-side
// page memo.
const noPage = ^uint64(0)

// codePage holds the line slots of one page. A slot is created on
// first use and lives until the core is restored.
type codePage struct {
	lines [linesPerPage]*cacheLine
}

// cacheLine is one line slot. As an I-cache line it is resident only
// while epoch equals the core's flushEpoch: a flush leaves it in place,
// stale, and the next fill reuses it. Epoch 0 is never current, so a
// slot not yet filled, or dropped by an own store, is not resident.
type cacheLine struct {
	data  [cacheLineSize]byte
	gen   uint64 // page generation at fill time
	epoch uint64 // Core.flushEpoch at fill time

	// decoded holds the decode-cache entries of instructions that start
	// in this line, sorted by offset; decodedMask has bit off set when
	// an entry at offset off is present, so the entry's index is the
	// number of set bits below it.
	decoded     []dcacheEntry
	decodedMask uint64
	// blocks holds the superblocks and sentinels entered in this line.
	blocks []*superblock
	// covers holds the entry RIPs of superblocks entered in an earlier
	// line whose code reaches into this one, each once.
	covers []uint64
	// hot counts anchor visits at RIPs in this line toward the
	// compilation threshold.
	hot []hotCount
	// straddlers has bit i set when an instruction decoded at offset
	// straddleBase+i of the previous line was cached covering this one.
	straddlers uint16
}

// hotCount is the anchor-visit count of one RIP, by offset in its line.
type hotCount struct {
	off, n uint8
}

// dcacheEntry is one decoded instruction, found by its offset in the
// line it starts in. lineGen snapshots the write generation of each
// cache line the encoding covers at decode time (at most two); a lookup
// revalidates those generations (against the resident I-cache line if
// present, against memory otherwise), which is what makes the cache an
// optimisation and not a semantic change: an entry is only replayed
// when the uncached fetch path would have produced the same bytes.
type dcacheEntry struct {
	inst    Inst
	lineGen [2]uint64
	bytes   [MaxInstLen]byte
	off     uint8
}

// straddles reports whether the entry's encoding runs into the next line.
func (e *dcacheEntry) straddles() bool {
	return int(e.off)+e.inst.Len > cacheLineSize
}

// decodedAt returns the index of the entry at offset off, or -1.
func (ln *cacheLine) decodedAt(off uint8) int {
	bit := uint64(1) << off
	if ln.decodedMask&bit == 0 {
		return -1
	}
	return bits.OnesCount64(ln.decodedMask & (bit - 1))
}

// putDecoded installs e, replacing any entry at its offset.
func (ln *cacheLine) putDecoded(e dcacheEntry) {
	bit := uint64(1) << e.off
	i := bits.OnesCount64(ln.decodedMask & (bit - 1))
	if ln.decodedMask&bit != 0 {
		ln.decoded[i] = e
		return
	}
	ln.decoded = slices.Insert(ln.decoded, i, e)
	ln.decodedMask |= bit
}

// dropDecoded removes entry i.
func (ln *cacheLine) dropDecoded(i int) {
	ln.decodedMask &^= 1 << ln.decoded[i].off
	ln.decoded = slices.Delete(ln.decoded, i, i+1)
}

// page returns the code page with page number pn, or nil. The page last
// found is checked before the map.
func (c *Core) page(pn uint64) *codePage {
	if c.lastPage != nil && c.lastPN == pn {
		return c.lastPage
	}
	pg := c.pages[pn]
	if pg != nil {
		c.lastPN, c.lastPage = pn, pg
	}
	return pg
}

// line returns line slot lineNum, or nil if the core never used it.
func (c *Core) line(lineNum uint64) *cacheLine {
	if pg := c.page(lineNum / linesPerPage); pg != nil {
		return pg.lines[lineNum%linesPerPage]
	}
	return nil
}

// slot returns line slot lineNum, creating it (and its page) if needed.
func (c *Core) slot(lineNum uint64) *cacheLine {
	pn := lineNum / linesPerPage
	pg := c.page(pn)
	if pg == nil {
		pg = new(codePage)
		c.pages[pn] = pg
		c.lastPN, c.lastPage = pn, pg
		c.storePN = noPage
	}
	ln := pg.lines[lineNum%linesPerPage]
	if ln == nil {
		ln = new(cacheLine)
		pg.lines[lineNum%linesPerPage] = ln
	}
	return ln
}

// resetCodeCache drops every page.
func (c *Core) resetCodeCache() {
	c.pages = make(map[uint64]*codePage)
	c.lastPage = nil
	c.storePN = noPage
	c.hotN = 0
}

// resident returns I-cache line lineNum if it was filled in the current
// flush epoch, or nil.
func (c *Core) resident(lineNum uint64) *cacheLine {
	if ln := c.line(lineNum); ln != nil && ln.epoch == c.flushEpoch {
		return ln
	}
	return nil
}

// fill reads line lineNum from memory into slot ln and makes it
// resident. A fetch fault leaves the slot as it was.
func (c *Core) fill(ln *cacheLine, lineNum uint64) error {
	gen, err := c.AS.FetchLine(lineNum*cacheLineSize, ln.data[:])
	if err != nil {
		return err
	}
	ln.gen, ln.epoch = gen, c.flushEpoch
	return nil
}

// invalidate applies the same-core self-modifying-code rule to every
// line that [addr, last] touches: each drops out of the I-cache along
// with the decoded instructions and superblocks whose code covers it.
// Pages the core holds no code on are skipped after one page check;
// the store side remembers the last page it checked, found or not.
func (c *Core) invalidate(addr, last uint64) {
	for l := addr / cacheLineSize; l <= last/cacheLineSize; l++ {
		pn := l / linesPerPage
		if c.storePN != pn {
			c.storePN, c.storePage = pn, c.pages[pn]
		}
		if c.storePage == nil {
			l = (pn+1)*linesPerPage - 1
			continue
		}
		if ln := c.storePage.lines[l%linesPerPage]; ln != nil {
			c.invalidateLine(ln, l)
		}
	}
}

// invalidateLine drops line slot ln (line lineNum) from the I-cache,
// with every decoded instruction and superblock whose code covers it.
func (c *Core) invalidateLine(ln *cacheLine, lineNum uint64) {
	ln.epoch = 0
	if n := len(ln.decoded); n > 0 {
		c.DecodeStats.Invalidations += uint64(n)
		ln.decoded, ln.decodedMask = ln.decoded[:0], 0
	}
	if ln.straddlers != 0 {
		if prev := c.line(lineNum - 1); prev != nil {
			for i := 0; i < 16; i++ {
				if ln.straddlers&(1<<i) == 0 {
					continue
				}
				if j := prev.decodedAt(uint8(straddleBase + i)); j >= 0 {
					prev.dropDecoded(j)
					c.DecodeStats.Invalidations++
				}
			}
		}
		ln.straddlers = 0
	}
	for _, sb := range ln.blocks {
		sb.kill()
		if len(sb.code) > 0 {
			c.JITStats.Invalidations++
		}
	}
	clear(ln.blocks)
	ln.blocks = ln.blocks[:0]
	for _, rip := range ln.covers {
		if sb := c.blockAt(rip); sb != nil {
			c.evictBlock(sb)
		}
	}
	ln.covers = ln.covers[:0]
}

// lookupDecoded consults the decode cache for the instruction at rip. A
// hit must be indistinguishable from the uncached path, so each covered
// line is revalidated:
//
//   - line resident in the I-cache: hit only if the line's generation
//     equals the entry's snapshot (the entry was decoded from exactly the
//     resident bytes). The usual one-staleness-check-per-line then runs
//     against memory, so P5 stale-fetch hazards are still detected — and,
//     crucially, the stale cached bytes are still EXECUTED, exactly as
//     the unserialized I-cache model demands.
//   - line not resident (e.g. after FlushICache): the uncached path would
//     refill from memory, so the entry may only be replayed if memory
//     still carries the generation it was decoded at. The refilled line
//     is installed into the I-cache to keep the side effects identical.
func (c *Core) lookupDecoded(rip uint64) (Inst, bool) {
	lineNum := rip / cacheLineSize
	ln := c.line(lineNum)
	if ln == nil {
		return Inst{}, false
	}
	i := ln.decodedAt(uint8(rip % cacheLineSize))
	if i < 0 {
		return Inst{}, false
	}
	e := &ln.decoded[i]
	staleAny := false
	if !c.revalidate(ln, lineNum, e.lineGen[0], &staleAny) {
		return Inst{}, false
	}
	if e.straddles() && !c.revalidate(c.line(lineNum+1), lineNum+1, e.lineGen[1], &staleAny) {
		return Inst{}, false
	}
	c.DecodeStats.Hits++
	c.noteStaleness(e.inst, e.bytes[:e.inst.Len], staleAny)
	return e.inst, true
}

// revalidate applies lookupDecoded's rule to one covered line slot.
func (c *Core) revalidate(ln *cacheLine, lineNum, gen uint64, stale *bool) bool {
	if ln.epoch == c.flushEpoch {
		if ln.gen != gen {
			return false
		}
		if ln.gen != c.AS.Gen(lineNum*cacheLineSize) {
			*stale = true
		}
		return true
	}
	return c.fill(ln, lineNum) == nil && ln.gen == gen
}

// installDecoded records a freshly decoded instruction, replacing any
// entry at rip. All covered lines are resident (fetchInst just pulled
// them through fetchByte).
func (c *Core) installDecoded(rip uint64, inst Inst, bytes []byte) {
	lineNum := rip / cacheLineSize
	ln := c.line(lineNum)
	e := dcacheEntry{inst: inst, off: uint8(rip % cacheLineSize)}
	copy(e.bytes[:], bytes)
	e.lineGen[0] = ln.gen
	if e.straddles() {
		next := c.line(lineNum + 1)
		e.lineGen[1] = next.gen
		next.straddlers |= 1 << (e.off - straddleBase)
	}
	ln.putDecoded(e)
}

// blockAt returns the superblock or sentinel entered at rip, or nil.
func (c *Core) blockAt(rip uint64) *superblock {
	if ln := c.line(rip / cacheLineSize); ln != nil {
		for _, sb := range ln.blocks {
			if sb.entry == rip {
				return sb
			}
		}
	}
	return nil
}

// evictBlock drops the block entered at sb.entry from the block cache.
// Line indexes are cleaned lazily: a covered line keeps sb.entry until
// it is invalidated, and an entry whose block is gone is skipped then.
func (c *Core) evictBlock(sb *superblock) {
	ln := c.line(sb.entry / cacheLineSize)
	if ln == nil {
		return
	}
	for i, b := range ln.blocks {
		if b.entry == sb.entry {
			b.kill()
			last := len(ln.blocks) - 1
			ln.blocks[i] = ln.blocks[last]
			ln.blocks[last] = nil
			ln.blocks = ln.blocks[:last]
			if len(sb.code) > 0 {
				c.JITStats.Invalidations++
			}
			return
		}
	}
}

// installBlock enters sb in the block cache and indexes the lines its
// code covers after the first.
func (c *Core) installBlock(sb *superblock) {
	first := c.slot(sb.entry / cacheLineSize)
	first.blocks = append(first.blocks, sb)
	for i := 1; i < len(sb.lines); i++ {
		if ln := sb.lines[i].ln; !slices.Contains(ln.covers, sb.entry) {
			ln.covers = append(ln.covers, sb.entry)
		}
	}
}

// noteHot bumps the anchor counter for rip and reports whether it
// crossed the compilation threshold. When jitMaxHot counters are live
// they are all dropped, which is deterministic (the reset point depends
// only on the instruction stream).
func (c *Core) noteHot(rip uint64) bool {
	if c.hotN >= jitMaxHot {
		for _, pg := range c.pages {
			for _, ln := range pg.lines {
				if ln != nil {
					ln.hot = nil
				}
			}
		}
		c.hotN = 0
	}
	ln := c.slot(rip / cacheLineSize)
	off := uint8(rip % cacheLineSize)
	for i := range ln.hot {
		if h := &ln.hot[i]; h.off == off {
			if h.n++; h.n < jitHotThreshold {
				return false
			}
			last := len(ln.hot) - 1
			ln.hot[i] = ln.hot[last]
			ln.hot = ln.hot[:last]
			c.hotN--
			return true
		}
	}
	ln.hot = append(ln.hot, hotCount{off: off, n: 1})
	c.hotN++
	return false
}
