package cpu

// This file implements the trace-JIT superblock engine layered over the
// decoded-instruction cache: hot straight-line regions are "compiled"
// into superblocks — arrays of decoded instructions, each stored with
// its op-table entry (see ops in exec.go), site and cycle cost — that
// execute without per-instruction fetch or decode-cache lookup. The op
// table is the one definition of every instruction: Step and a
// superblock call the same function, so the two engines cannot drift.
//
// The correctness contract is the same observational-equivalence
// discipline the decode cache lives under, but stricter, because a
// superblock skips the per-instruction staleness machinery entirely: a
// superblock instruction may only execute when the interpreter,
// starting from the same architectural and I-cache state, would fetch
// exactly the same bytes AND observe no cross-modifying-code hazard.
// Anything else — a bumped page generation, a stale resident line, an
// unmapped code page — bails back to the interpreter BEFORE the
// affected instruction is charged or executed, so fetch faults, CMC
// accounting (pitfall P5), and trap sites are bit-identical to
// interpreted execution. An instruction that faults on a data access
// is charged and retired, with RIP left at its site, exactly as Step
// does: it is the same op function.
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
// inside one. Unconditional transfers end a block; a conditional
// branch side-exits when taken and falls through in-block otherwise
// (an op reports both as leaving straight-line flow). A store that
// hits the block's own code lines completes and evicts the block, via
// the same invalidateLine path that guards the decode cache; the
// dispatcher sees the block dead after the instruction and side-exits
// so the interpreter refetches the new bytes — the same-core
// self-modifying-code rule.

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

// sbInst is one compiled instruction: its op from the op table, the
// decoded instruction, the retirement metadata the dispatcher charges
// before running it (site, cycle cost — mirroring Step's accounting
// order), and the index (into superblock.lines) of the last code line
// its encoding covers, which drives the lazy line-fill watermark.
type sbInst struct {
	run     opFunc
	inst    Inst
	site    uint64
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
		if prev == nil {
			sb = c.blockAt(rip)
		} else if sb = prev.next; sb == nil || sb.entry != rip || sb.dead {
			sb = c.blockAt(rip)
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
	trace := c.Trace
	// filled counts the code lines validated so far; a block already
	// fully validated in this epoch has nothing left to fill.
	filled := 0
	if sb.seq == c.jitSeq {
		filled = len(sb.lines)
	}
	code := sb.code
	if len(code) > budget {
		code = code[:budget]
	}
	for i := range code {
		si := &code[i]
		// Lazy line fill: validate (and make resident) every code line
		// this instruction's encoding covers, in fetch order, exactly
		// when the interpreter's fetch would have.
		for filled <= si.endLine {
			if !c.sbValidateLine(sb, filled) {
				c.JITStats.Bails++
				c.JITStats.BlockInsts += uint64(i)
				return Stop{Kind: StopNone}, i
			}
			filled++
			if filled == len(sb.lines) {
				sb.seq = c.jitSeq
			}
		}
		// Retirement accounting in Step's order: trace, charge, execute.
		if trace != nil {
			trace.Fold(c.TID, si.site, si.inst.Op)
		}
		c.Cycles += si.cost
		c.Insts++
		stop, jumped := si.run(c, &si.inst, si.site)
		if stop.Kind != StopNone || jumped || sb.dead {
			// A block dead after a store was evicted by it: the store hit
			// the block's own lines, so side-exit and let the interpreter
			// refetch the new bytes.
			if stop.Kind == StopNone && !jumped {
				c.JITStats.SelfWrites++
			}
			c.JITStats.BlockInsts += uint64(i + 1)
			return stop, i + 1
		}
	}
	c.JITStats.BlockInsts += uint64(len(code))
	return Stop{Kind: StopNone}, len(code)
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
			run:     ops[s.inst.Op],
			inst:    s.inst,
			site:    s.site,
			cost:    InstCost(s.inst.Op),
			endLine: endLine,
		})
	}
	c.installBlock(sb)
	c.JITStats.Blocks++
}
