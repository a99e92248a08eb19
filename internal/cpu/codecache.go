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
// bytes and decoded instructions (in a line shared by content), the
// superblocks entered there and the superblocks that cover it from an
// earlier line. A fetch, a decode-cache hit and a block dispatch are
// therefore a page compare, an array index and a bit count or a short
// scan, and a store to a page that never held code stops after one page
// check.

// cacheLineSize is the I-cache line size in bytes.
const cacheLineSize = 64

// linesPerPage is the number of I-cache lines in one page.
const linesPerPage = mem.PageSize / cacheLineSize

// straddleBase is the lowest offset an instruction can start at and
// still run into the next line (MaxInstLen < cacheLineSize).
const straddleBase = cacheLineSize - MaxInstLen

// maxLines bounds a Lines table: a full one is emptied, and the slots
// keep the lines they point at, so no result changes.
const maxLines = 4096

// noPage is a page number no address has; it empties the store-side
// page memo.
const noPage = ^uint64(0)

// decodedLine is a line's bytes and the instructions decoded from them
// that start in it, sorted by offset; mask has bit off set when one at
// offset off is present, so its index is the number of set bits below
// it. Every core whose slot holds these bytes shares it. An entry, once
// added, never changes: a straddler also depends on the next line's
// bytes, and a slot that must replace one takes a private copy.
type decodedLine struct {
	data  string
	mask  uint64
	insts []Inst
}

// Lines is a table of decoded lines keyed by their own data strings; a
// kernel gives its one table to every core it creates.
type Lines map[string]*decodedLine

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
	dec   *decodedLine // the bytes at fill time, and what was decoded
	gen   uint64       // page generation at fill time
	epoch uint64       // Core.flushEpoch at fill time

	// decodedMask has bit off set when this core decoded an instruction
	// at offset off and has not dropped it; liveMask has the bits of
	// those not retired, each found in dec.
	decodedMask uint64
	liveMask    uint64
	// blocks holds the superblocks and sentinels entered in this line.
	blocks []*superblock
	// covers holds the entry RIPs of superblocks entered in an earlier
	// line whose code reaches into this one, each once.
	covers []uint64
	// hot counts anchor visits toward the compilation threshold, by
	// offset in this line; it is allocated at the line's first anchor.
	hot *[cacheLineSize]uint8
	// straddlers has bit i set when an instruction decoded at offset
	// straddleBase+i of the previous line was cached covering this one.
	straddlers uint16
}

// straddles reports whether n bytes at offset off run into the next line.
func straddles(off, n uint8) bool { return int(off)+int(n) > cacheLineSize }

// live returns the live instruction at offset off.
func (ln *cacheLine) live(off uint8) (Inst, bool) {
	bit := uint64(1) << off
	if ln.liveMask&bit == 0 {
		return Inst{}, false
	}
	return ln.dec.insts[bits.OnesCount64(ln.dec.mask&(bit-1))], true
}

// putDecoded installs inst, live, at offset off, replacing any
// instruction this core had there.
func (ln *cacheLine) putDecoded(off uint8, inst Inst) {
	bit := uint64(1) << off
	d := ln.dec
	i := bits.OnesCount64(d.mask & (bit - 1))
	if d.mask&bit == 0 {
		d.insts = slices.Insert(d.insts, i, inst)
		d.mask |= bit
	} else if d.insts[i] != inst { // a straddler over other next-line bytes
		ln.dec = &decodedLine{data: d.data, mask: d.mask, insts: slices.Clone(d.insts)}
		ln.dec.insts[i] = inst
	}
	ln.decodedMask |= bit
	ln.liveMask |= bit
}

// dropDecoded forgets the instruction this core had at offset off and
// reports whether there was one.
func (ln *cacheLine) dropDecoded(off uint8) bool {
	bit := uint64(1) << off
	had := ln.decodedMask&bit != 0
	ln.decodedMask &^= bit
	ln.liveMask &^= bit
	return had
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
// resident. A fetch fault leaves the slot as it was. Only a new
// generation (never 0 on a mapped page) can bring new bytes.
func (c *Core) fill(ln *cacheLine, lineNum uint64) error {
	var buf [cacheLineSize]byte
	gen, err := c.AS.FetchLine(lineNum*cacheLineSize, buf[:])
	if err != nil {
		return err
	}
	if gen != ln.gen {
		c.retireDecoded(ln, lineNum)
		ln.dec = c.intern(&buf)
	}
	ln.gen, ln.epoch = gen, c.flushEpoch
	return nil
}

// intern returns the line in c.Lines that holds data, adding it if there
// is none.
func (c *Core) intern(data *[cacheLineSize]byte) *decodedLine {
	if d := c.Lines[string(data[:])]; d != nil {
		return d
	}
	if c.Lines == nil {
		c.Lines = make(Lines)
	} else if len(c.Lines) >= maxLines {
		clear(c.Lines)
	}
	d := &decodedLine{data: string(data[:])}
	c.Lines[d.data] = d
	return d
}

// retireDecoded clears the live bits of the decoded instructions that
// cover slot ln (line lineNum), its own and those straddling into it,
// as ln takes a new generation. A slot's generation only grows (fill
// reads a monotone clock, and a restore starts the cache over), so
// none of them could pass a generation check again. Each keeps its
// slot, which keeps the line lengths and Invalidations unchanged.
func (c *Core) retireDecoded(ln *cacheLine, lineNum uint64) {
	ln.liveMask = 0
	for s := ln.straddlers; s != 0; s &= s - 1 {
		prev, off := c.line(lineNum-1), uint8(straddleBase+bits.TrailingZeros16(s))
		if inst, ok := prev.live(off); ok && straddles(off, inst.Len) {
			prev.liveMask &^= 1 << off
		}
	}
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
	c.DecodeStats.Invalidations += uint64(bits.OnesCount64(ln.decodedMask))
	ln.decodedMask, ln.liveMask = 0, 0
	for s := ln.straddlers; s != 0; s &= s - 1 {
		if c.line(lineNum - 1).dropDecoded(uint8(straddleBase + bits.TrailingZeros16(s))) {
			c.DecodeStats.Invalidations++
		}
	}
	ln.straddlers = 0
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
// hit must be indistinguishable from the uncached path. A retired
// instruction misses at once (the uncached fetch then refills a
// non-resident line just as revalidation would have); a live one was
// decoded from the generations its lines hold, and each is revalidated:
//
//   - line resident in the I-cache: the usual one-staleness-check-per-line
//     runs against memory, so P5 stale-fetch hazards are still detected —
//     and, crucially, the stale cached bytes are still EXECUTED, exactly
//     as the unserialized I-cache model demands.
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
	off := uint8(rip % cacheLineSize)
	inst, ok := ln.live(off)
	if !ok {
		return Inst{}, false
	}
	staleAny := false
	if !c.revalidate(ln, lineNum, ln.gen, &staleAny) {
		return Inst{}, false
	}
	var next *cacheLine
	if straddles(off, inst.Len) {
		next = c.line(lineNum + 1)
		if !c.revalidate(next, lineNum+1, next.gen, &staleAny) {
			return Inst{}, false
		}
	}
	c.DecodeStats.Hits++
	if staleAny {
		// Every covered slot holds the generation the instruction was
		// decoded from, so it holds the bytes it was decoded from.
		var buf [MaxInstLen]byte
		n := copy(buf[:inst.Len], ln.dec.data[off:])
		if next != nil {
			copy(buf[n:inst.Len], next.dec.data)
		}
		c.noteStaleness(buf[:inst.Len], true)
	}
	return inst, true
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
// at rip. All covered lines are resident (fetchInst just pulled them
// through fetchByte), so it was decoded from their generations.
func (c *Core) installDecoded(rip uint64, inst Inst) {
	lineNum := rip / cacheLineSize
	off := uint8(rip % cacheLineSize)
	if straddles(off, inst.Len) {
		c.line(lineNum + 1).straddlers |= 1 << (off - straddleBase)
	}
	c.line(lineNum).putDecoded(off, inst)
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
	if ln.hot == nil {
		ln.hot = new([cacheLineSize]uint8)
	}
	n := &ln.hot[rip%cacheLineSize]
	if *n++; *n == 1 {
		c.hotN++
	}
	if *n < jitHotThreshold {
		return false
	}
	*n = 0
	c.hotN--
	return true
}
