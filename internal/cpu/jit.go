package cpu

import "k23/internal/mem"

// This file implements the trace-JIT superblock engine layered over the
// decoded-instruction cache: hot straight-line regions are "compiled"
// into superblocks — threaded-code arrays of pre-bound instruction
// closures — that execute without per-instruction fetch, decode-cache
// lookup, or switch dispatch.
//
// The correctness contract is the same observational-equivalence
// discipline the decode cache lives under, but stricter, because a
// superblock skips the per-instruction staleness machinery entirely: a
// superblock instruction may only execute when the interpreter,
// starting from the same architectural and I-cache state, would fetch
// exactly the same bytes AND observe no cross-modifying-code hazard.
// Anything else — a bumped page generation, a stale resident line, an
// unmapped code page — bails back to the interpreter BEFORE the
// affected instruction executes, so faults, CMC accounting (pitfall
// P5), and trap sites are bit-identical to interpreted execution.
//
// I-cache residency is part of the observable state (the P5 scenarios
// depend on which lines are resident), so superblock formation never
// touches the I-cache: it reads code through private build buffers.
// Execution fills resident lines lazily, in the order the interpreter
// would have fetched them (a monotone watermark over the block's
// contiguous line range), so after any exit — side exit, fault, bail,
// or budget expiry — the resident-line set is exactly what the
// interpreter would have produced.
//
// Superblocks end before any instruction that enters the kernel or
// serializes the core (SYSCALL, SYSENTER, HOSTCALL, CPUID, MFENCE,
// UD2, HLT, INT3), so interposition boundaries — traps, audit taps,
// signal delivery with RIP rewind — always occur between blocks, never
// inside one. Unconditional transfers may terminate a block;
// conditional branches side-exit when taken and fall through in-block
// otherwise. A store that hits the block's own code lines completes,
// evicts the block (via the same invalidateLine path that guards the
// decode cache), and side-exits so the interpreter refetches the new
// bytes — the same-core self-modifying-code rule.

// Superblock formation and dispatch tuning. The thresholds are
// deliberately deterministic: hotness counts depend only on the
// instruction stream, never on host time.
const (
	// jitHotThreshold is the number of anchor visits before a region is
	// compiled.
	jitHotThreshold = 16
	// jitMinBlockInsts is the smallest region worth a superblock;
	// shorter regions are negative-cached as sentinels.
	jitMinBlockInsts = 2
	// jitMaxBlockInsts caps a superblock's instruction count.
	jitMaxBlockInsts = 64
	// jitMaxBlockLines caps the contiguous I-cache line span of one
	// block (jitMaxBlockInsts * MaxInstLen / cacheLineSize, rounded up,
	// plus a straddle line).
	jitMaxBlockLines = jitMaxBlockInsts*MaxInstLen/cacheLineSize + 2
	// jitMaxHot bounds the live anchor counters; when reached they are
	// all dropped (see noteHot).
	jitMaxHot = 1 << 15
)

// JITStats counts superblock activity on one core. Like
// DecodeCacheStats these are engine-internal diagnostics: they are
// deterministic for a given workload and JIT mode, but they differ
// between modes (JIT-on execution skips the decode cache), so the
// difftest snapshot deliberately excludes them.
type JITStats struct {
	// Blocks counts superblocks compiled.
	Blocks uint64
	// Sentinels counts regions negative-cached as too small to compile.
	Sentinels uint64
	// Entries counts superblock executions entered.
	Entries uint64
	// BlockInsts counts instructions retired inside superblocks.
	BlockInsts uint64
	// Bails counts generation-check failures that returned control to
	// the interpreter (stale or rewritten code, unmapped pages).
	Bails uint64
	// SelfWrites counts side exits forced by a store into the block's
	// own code lines.
	SelfWrites uint64
	// Invalidations counts superblocks evicted by invalidateLine
	// (self-modifying or cross-modified code).
	Invalidations uint64
}

// Add accumulates other into s.
func (s *JITStats) Add(other JITStats) {
	s.Blocks += other.Blocks
	s.Sentinels += other.Sentinels
	s.Entries += other.Entries
	s.BlockInsts += other.BlockInsts
	s.Bails += other.Bails
	s.SelfWrites += other.SelfWrites
	s.Invalidations += other.Invalidations
}

// Coverage returns the fraction of totalInsts retired inside
// superblocks.
func (s JITStats) Coverage(totalInsts uint64) float64 {
	if totalInsts == 0 {
		return 0
	}
	return float64(s.BlockInsts) / float64(totalInsts)
}

// sbRes says how a superblock instruction left the core.
type sbRes uint8

const (
	// sbNext: retired; fall through to the next block instruction.
	sbNext sbRes = iota
	// sbExit: retired; control left the block (taken branch, terminal
	// transfer, or self-write side exit). RIP is already correct.
	sbExit
	// sbStop: the instruction stopped with a non-StopNone Stop (fault).
	// RIP is at the faulting site, exactly as Step leaves it.
	sbStop
)

// sbClosure executes one pre-bound instruction.
type sbClosure func(c *Core) (sbRes, Stop)

// sbInst is one compiled instruction: its pre-bound body closure, the
// retirement metadata the dispatcher charges before running it (site,
// op, cycle cost — mirroring Step's accounting order), and the index
// (into superblock.lines) of the last code line its encoding covers,
// which drives the lazy line-fill watermark.
type sbInst struct {
	run     sbClosure
	site    uint64
	op      Op
	cost    uint64
	endLine int
}

// superblock is a compiled straight-line region. lines[i] is the slot
// of code line firstLine+i with its page generation at build time;
// execution revalidates each line against it before the first
// instruction touching the line runs. A superblock with no code is a
// sentinel: the region was scanned and found too small, so the
// dispatcher stops trying to compile it.
//
// seq caches a successful full validation: when it equals the core's
// jitSeq, every code line was validated resident at the block's build
// generation earlier in the same validation epoch, and nothing can have
// changed since — epochs end at quantum boundaries (other cores may
// write memory only while this core is descheduled) and at I-cache
// flushes, and this core's own stores evict overlapping blocks eagerly
// — so re-entry skips the per-line generation checks entirely.
//
// next is the block dispatched right after this one last time, so a
// loop or a call chain that keeps leaving through the same exit skips
// the code-cache lookup. dead marks a block dropped from the cache,
// which next must never lead back to.
type superblock struct {
	entry     uint64
	code      []sbInst
	firstLine uint64
	lines     []sbLine
	seq       uint64
	next      *superblock
	dead      bool
}

// kill marks sb dropped from the code cache.
func (sb *superblock) kill() {
	sb.dead = true
	sb.next = nil
}

// sbLine is one code line of a superblock: its slot in the code cache
// and its page generation when the block was built.
type sbLine struct {
	ln  *cacheLine
	gen uint64
}

// jitActive reports whether this core dispatches through superblocks.
// The JIT sits on top of the decode-cache world view, so the cache-off
// mode (difftest baseline) disables it too.
func (c *Core) jitActive() bool {
	return !c.JITOff && !c.DecodeCacheOff
}

// Run executes up to budget instructions, dispatching hot code through
// superblocks, and returns the first non-StopNone stop (or StopNone on
// budget expiry). It is the kernel scheduler's quantum entry point; the
// per-instruction Step remains the single-step API (and the profiler
// deopt path).
func (c *Core) Run(budget int) Stop {
	if !c.jitActive() {
		for budget > 0 {
			budget--
			if stop := c.Step(); stop.Kind != StopNone {
				return stop
			}
		}
		return Stop{Kind: StopNone}
	}
	// A fresh quantum starts a new validation epoch: other cores may
	// have modified code pages while this one was descheduled.
	c.jitSeq++
	// anchor marks RIPs worth counting toward compilation: quantum
	// entry, backward-transfer targets, and superblock exit points.
	anchor := true
	// prev is the block that just ran, if the last dispatch ran one.
	var prev *superblock
	for budget > 0 {
		rip := c.Ctx.RIP
		var sb *superblock
		if prev != nil && prev.next != nil && prev.next.entry == rip && !prev.next.dead {
			sb = prev.next
		} else if sb = c.blockAt(rip); prev != nil {
			prev.next = sb
		}
		prev = nil
		if sb != nil {
			if len(sb.code) > 0 {
				stop, executed := c.execBlock(sb, budget)
				budget -= executed
				if stop.Kind != StopNone {
					return stop
				}
				if executed > 0 {
					anchor = true
					prev = sb
					continue
				}
				// Bailed before the first instruction: interpret one
				// instruction below so stale or rewritten code still
				// makes progress (and counts its CMC hazards) exactly
				// as the interpreter would.
			}
		} else if anchor {
			if c.noteHot(rip) {
				c.buildBlock(rip)
				continue
			}
		}
		anchor = false
		budget--
		stop := c.Step()
		if stop.Kind != StopNone {
			return stop
		}
		if c.Ctx.RIP <= rip {
			anchor = true
		}
	}
	return Stop{Kind: StopNone}
}

// execBlock runs sb until it ends, side-exits, stops, bails, or the
// budget is exhausted. It returns the stop (StopNone unless an
// instruction stopped) and the number of instructions retired.
func (c *Core) execBlock(sb *superblock, budget int) (Stop, int) {
	c.JITStats.Entries++
	validated := sb.seq == c.jitSeq
	trace := c.Trace
	filled := 0
	executed := 0
	for i := range sb.code {
		if executed >= budget {
			c.JITStats.BlockInsts += uint64(executed)
			return Stop{Kind: StopNone}, executed
		}
		si := &sb.code[i]
		// Lazy line fill: validate (and make resident) every code line
		// this instruction's encoding covers, in fetch order, exactly
		// when the interpreter's fetch would have. Skipped entirely when
		// the block already fully validated in this epoch.
		for !validated && filled <= si.endLine {
			if !c.sbValidateLine(sb, filled) {
				c.JITStats.Bails++
				c.JITStats.BlockInsts += uint64(executed)
				return Stop{Kind: StopNone}, executed
			}
			filled++
			if filled == len(sb.lines) {
				sb.seq = c.jitSeq
			}
		}
		// Retirement accounting in Step's order: trace, charge, execute.
		if trace != nil {
			trace.Fold(c.TID, si.site, si.op)
		}
		c.Cycles += si.cost
		c.Insts++
		res, stop := si.run(c)
		executed++
		switch res {
		case sbExit:
			c.JITStats.BlockInsts += uint64(executed)
			return Stop{Kind: StopNone}, executed
		case sbStop:
			c.JITStats.BlockInsts += uint64(executed)
			return stop, executed
		}
	}
	c.JITStats.BlockInsts += uint64(executed)
	return Stop{Kind: StopNone}, executed
}

// sbValidateLine checks (and, if needed, fills) code line index idx of
// sb, reporting whether the superblock may keep executing. The rules
// mirror lookupDecoded's per-line revalidation:
//
//   - line resident with a different generation than at build time: the
//     resident bytes are not the block's bytes — evict and bail.
//   - line resident at build generation but memory has moved on: the
//     interpreter would execute these stale bytes and count the CMC
//     hazard per instruction (pitfall P5); bail WITHOUT evicting so it
//     does exactly that.
//   - line not resident: refill from memory, installing the line (the
//     interpreter's fetch side effect). A fetch fault bails — the
//     interpreter reproduces the fault at the correct site. A refill at
//     a different generation than build time evicts and bails.
func (c *Core) sbValidateLine(sb *superblock, idx int) bool {
	l := sb.lines[idx]
	stale := false
	if !c.revalidate(l.ln, sb.firstLine+uint64(idx), l.gen, &stale) {
		// Resident now, so at a different generation than at build time.
		if l.ln.epoch == c.flushEpoch {
			c.evictBlock(sb)
		}
		return false
	}
	return !stale
}

// jitIncludable reports whether op may execute inside a superblock.
// The list is a whitelist so any future op defaults to the
// interpreter. Excluded: kernel entries and serialization points
// (SYSCALL, SYSENTER, HOSTCALL, CPUID, MFENCE), and stop-raising ops
// (UD2, HLT, INT3) — blocks end BEFORE them, which is what guarantees
// traps, audit taps and signal delivery happen at block boundaries.
func jitIncludable(op Op) bool {
	switch op {
	case OpNop, OpRdtsc, OpWrpkru, OpRdpkru, OpRdfsbase, OpWrfsbase,
		OpMovImm, OpMovImm32, OpMovRR,
		OpAdd, OpSub, OpXor, OpAnd, OpOr, OpMul, OpAddImm, OpShl, OpShr,
		OpCmp, OpCmpImm, OpTest,
		OpLoad, OpLoadB, OpStore, OpStoreB, OpStoreW,
		OpPush, OpPop,
		OpCall, OpCallReg, OpJmp, OpJmpReg, OpRet,
		OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return true
	}
	return false
}

// jitTerminal reports whether op unconditionally transfers control and
// therefore ends the block (as its last instruction).
func jitTerminal(op Op) bool {
	switch op {
	case OpCall, OpCallReg, OpJmp, OpJmpReg, OpRet:
		return true
	}
	return false
}

// buildBlock scans the straight-line region at entry and installs a
// superblock (or a sentinel when the region is too small). Scanning
// reads code through private buffers — never through the I-cache — and
// records each line's page generation, which execution later
// revalidates. Lines are contiguous from the entry line, so the
// execution watermark can fill them in order.
func (c *Core) buildBlock(entry uint64) {
	firstLine := entry / cacheLineSize
	var gens [jitMaxBlockLines]uint64
	var data [jitMaxBlockLines][cacheLineSize]byte
	fetched := 0

	readByte := func(addr uint64) (byte, bool) {
		li := int(addr/cacheLineSize) - int(firstLine)
		if li < 0 || li >= jitMaxBlockLines {
			return 0, false
		}
		for fetched <= li {
			base := (firstLine + uint64(fetched)) * cacheLineSize
			gen, err := c.AS.FetchLine(base, data[fetched][:])
			if err != nil {
				return 0, false
			}
			gens[fetched] = gen
			fetched++
		}
		return data[li][addr%cacheLineSize], true
	}

	type scanned struct {
		inst Inst
		site uint64
	}
	var insts []scanned
	addr := entry
scan:
	for len(insts) < jitMaxBlockInsts {
		b0, ok := readByte(addr)
		if !ok {
			break
		}
		var buf [MaxInstLen]byte
		buf[0] = b0
		n, needSecond := EncodedLen(b0, 0, 1)
		if needSecond {
			b1, ok := readByte(addr + 1)
			if !ok {
				break
			}
			buf[1] = b1
			n, _ = EncodedLen(b0, b1, 2)
		}
		if n <= 0 {
			break
		}
		for i := 1; i < n; i++ {
			bi, ok := readByte(addr + uint64(i))
			if !ok {
				break scan
			}
			buf[i] = bi
		}
		inst, err := Decode(buf[:n])
		if err != nil {
			break
		}
		if !jitIncludable(inst.Op) {
			break
		}
		insts = append(insts, scanned{inst: inst, site: addr})
		addr += uint64(inst.Len)
		if jitTerminal(inst.Op) {
			break
		}
	}

	if len(insts) < jitMinBlockInsts {
		c.installBlock(&superblock{entry: entry})
		c.JITStats.Sentinels++
		return
	}
	last := insts[len(insts)-1]
	lastLine := (last.site + uint64(last.inst.Len) - 1) / cacheLineSize
	sb := &superblock{
		entry:     entry,
		firstLine: firstLine,
		lines:     make([]sbLine, lastLine-firstLine+1),
	}
	for i := range sb.lines {
		sb.lines[i] = sbLine{ln: c.slot(firstLine + uint64(i)), gen: gens[i]}
	}
	for _, s := range insts {
		endLine := int((s.site+uint64(s.inst.Len)-1)/cacheLineSize) - int(firstLine)
		sb.code = append(sb.code, sbInst{
			run:     bindInst(s.inst, s.site, firstLine, lastLine),
			site:    s.site,
			op:      s.inst.Op,
			cost:    InstCost(s.inst.Op),
			endLine: endLine,
		})
	}
	c.installBlock(sb)
	c.JITStats.Blocks++
}

// bindInst compiles one instruction into a body closure with its
// operands, site and successor RIP pre-bound. The dispatcher performs
// the retirement prologue (trace fold, cycle/instruction accounting)
// before calling the body; the body replays Step's op semantics
// exactly: identical fault behaviour (the instruction retires, RIP
// stays at the site), identical RIP updates.
func bindInst(inst Inst, site uint64, firstLine, lastLine uint64) sbClosure {
	op := inst.Op
	a, b := inst.A, inst.B
	imm := inst.Imm
	uimm := uint64(imm)
	next := site + uint64(inst.Len)

	// overlaps reports whether a completed store touched the block's
	// own code lines; such a store evicted the block via invalidateLine,
	// so the closure side-exits and the interpreter refetches.
	overlaps := func(addr uint64, n int) bool {
		lo := addr / cacheLineSize
		hi := (addr + uint64(n) - 1) / cacheLineSize
		return hi >= firstLine && lo <= lastLine
	}

	var body sbClosure
	switch op {
	case OpNop:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpRdtsc:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RAX] = c.Cycles
			c.Ctx.R[RDX] = 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpWrpkru:
		body = func(c *Core) (sbRes, Stop) {
			c.PKRU = mem.PKRU(uint32(c.Ctx.R[RAX]))
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpRdpkru:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RAX] = uint64(uint32(c.PKRU))
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpRdfsbase:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = c.TLS
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpWrfsbase:
		body = func(c *Core) (sbRes, Stop) {
			c.TLS = c.Ctx.R[a]
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMovImm, OpMovImm32:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = uimm
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMovRR:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[a] = c.Ctx.R[b]
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAdd:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] + c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpSub:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] - c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpXor:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] ^ c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAnd:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] & c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpOr:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] | c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpMul:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] * c.Ctx.R[b]
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpAddImm:
		body = func(c *Core) (sbRes, Stop) {
			v := uint64(int64(c.Ctx.R[a]) + imm)
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpShl:
		sh := uint(imm)
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] << sh
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpShr:
		sh := uint(imm)
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] >> sh
			c.Ctx.R[a] = v
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCmp:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] - c.Ctx.R[b]
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCmpImm:
		body = func(c *Core) (sbRes, Stop) {
			v := uint64(int64(c.Ctx.R[a]) - imm)
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpTest:
		body = func(c *Core) (sbRes, Stop) {
			v := c.Ctx.R[a] & c.Ctx.R[b]
			c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpLoad:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[b]+uimm, c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[a] = v
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpLoadB:
		body = func(c *Core) (sbRes, Stop) {
			bs, err := c.AS.Load(c.Ctx.R[b]+uimm, 1, c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[a] = uint64(bs[0])
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpStore:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			if err := c.store(addr, putLE64(c.Ctx.R[b])); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 8) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpStoreB:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			if err := c.store(addr, []byte{byte(c.Ctx.R[b])}); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 1) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpStoreW:
		body = func(c *Core) (sbRes, Stop) {
			addr := c.Ctx.R[a] + uimm
			v := uint16(c.Ctx.R[b])
			if err := c.store(addr, []byte{byte(v), byte(v >> 8)}); err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 2) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpPush:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RSP] -= 8
			addr := c.Ctx.R[RSP]
			if err := c.store(addr, putLE64(c.Ctx.R[a])); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = next
			if overlaps(addr, 8) {
				c.JITStats.SelfWrites++
				return sbExit, Stop{}
			}
			return sbNext, Stop{}
		}
	case OpPop:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[RSP] += 8
			c.Ctx.R[a] = v
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	case OpCall:
		target := uint64(int64(next) + imm)
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.R[RSP] -= 8
			if err := c.store(c.Ctx.R[RSP], putLE64(next)); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpCallReg:
		body = func(c *Core) (sbRes, Stop) {
			target := c.Ctx.R[a]
			c.Ctx.R[RSP] -= 8
			if err := c.store(c.Ctx.R[RSP], putLE64(next)); err != nil {
				c.Ctx.R[RSP] += 8
				return sbStop, faultStop(err, site)
			}
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpJmp:
		target := uint64(int64(next) + imm)
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.RIP = target
			return sbExit, Stop{}
		}
	case OpJmpReg:
		body = func(c *Core) (sbRes, Stop) {
			c.Ctx.RIP = c.Ctx.R[a]
			return sbExit, Stop{}
		}
	case OpRet:
		body = func(c *Core) (sbRes, Stop) {
			v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
			if err != nil {
				return sbStop, faultStop(err, site)
			}
			c.Ctx.R[RSP] += 8
			c.Ctx.RIP = v
			return sbExit, Stop{}
		}
	case OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		target := uint64(int64(next) + imm)
		pred := jitPred(op)
		body = func(c *Core) (sbRes, Stop) {
			if pred(&c.Ctx) {
				c.Ctx.RIP = target
				return sbExit, Stop{}
			}
			c.Ctx.RIP = next
			return sbNext, Stop{}
		}
	default:
		// Unreachable: jitIncludable gates formation. A nil body would
		// crash loudly; return an explicit always-bail closure instead.
		body = func(c *Core) (sbRes, Stop) {
			return sbStop, Stop{Kind: StopIll, Site: site}
		}
	}
	return body
}

// jitPred returns the branch predicate for a conditional jump op,
// mirroring Step's taken logic.
func jitPred(op Op) func(*Context) bool {
	switch op {
	case OpJz:
		return func(x *Context) bool { return x.ZF }
	case OpJnz:
		return func(x *Context) bool { return !x.ZF }
	case OpJl:
		return func(x *Context) bool { return x.SF }
	case OpJge:
		return func(x *Context) bool { return !x.SF }
	case OpJle:
		return func(x *Context) bool { return x.ZF || x.SF }
	default: // OpJg
		return func(x *Context) bool { return !x.ZF && !x.SF }
	}
}
