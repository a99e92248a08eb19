package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"k23/internal/mem"
)

// runQuanta drives a core through repeated fixed-size Run quanta — the
// kernel scheduler's shape — until a non-StopNone stop or maxQuanta.
func runQuanta(t *testing.T, c *Core, quantum, maxQuanta int) Stop {
	t.Helper()
	for i := 0; i < maxQuanta; i++ {
		if s := c.Run(quantum); s.Kind != StopNone {
			return s
		}
	}
	t.Fatal("program did not stop")
	return Stop{}
}

func stopsEqual(a, b Stop) bool {
	if a.Kind != b.Kind || a.Site != b.Site {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return false
	}
	if a.Fault != nil && (a.Fault.Addr != b.Fault.Addr ||
		a.Fault.Access != b.Fault.Access || a.Fault.Cause != b.Fault.Cause) {
		return false
	}
	return true
}

// coreStatesEqual compares everything architecturally observable about
// two cores that must have executed identically: register file, TLS,
// retirement counters, and CMC accounting.
func coreStatesEqual(t *testing.T, name string, on, off *Core) {
	t.Helper()
	if on.Ctx != off.Ctx {
		t.Errorf("%s: contexts differ:\n on: %+v\noff: %+v", name, on.Ctx, off.Ctx)
	}
	if on.TLS != off.TLS {
		t.Errorf("%s: TLS differs: %#x vs %#x", name, on.TLS, off.TLS)
	}
	if on.Insts != off.Insts || on.Cycles != off.Cycles {
		t.Errorf("%s: insts/cycles differ: %d/%d vs %d/%d",
			name, on.Insts, on.Cycles, off.Insts, off.Cycles)
	}
	if on.CMCViolations != off.CMCViolations {
		t.Errorf("%s: CMC violations differ: %d vs %d",
			name, on.CMCViolations, off.CMCViolations)
	}
}

// icacheEqual compares the resident-line sets (lines and generations) of
// two cores. Residency is observable state — the P5 stale-execution
// scenarios depend on it — so the superblock engine's lazy line fill
// must leave exactly the interpreter's set behind.
func icacheEqual(t *testing.T, name string, on, off *Core) {
	t.Helper()
	onLines, offLines := residentLines(on), residentLines(off)
	if len(onLines) != len(offLines) {
		t.Errorf("%s: resident line counts differ: %d vs %d",
			name, len(onLines), len(offLines))
		return
	}
	for l, lnOn := range onLines {
		lnOff, ok := offLines[l]
		if !ok {
			t.Errorf("%s: line %#x resident only with JIT on", name, l)
			continue
		}
		if lnOn.gen != lnOff.gen {
			t.Errorf("%s: line %#x generations differ: %d vs %d",
				name, l, lnOn.gen, lnOff.gen)
		}
		if lnOn.dec.data != lnOff.dec.data {
			t.Errorf("%s: line %#x bytes differ", name, l)
		}
	}
}

// residentLines returns c's resident I-cache lines by line number.
func residentLines(c *Core) map[uint64]*cacheLine {
	out := make(map[uint64]*cacheLine)
	for pn, pg := range c.pages {
		for i, ln := range pg.lines {
			if ln != nil && ln.epoch == c.flushEpoch {
				out[pn*linesPerPage+uint64(i)] = ln
			}
		}
	}
	return out
}

func TestJITHotLoopFormsBlocks(t *testing.T) {
	c := loopCore(t, 1000)
	s := runQuanta(t, c, 1000, 200)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.Ctx.R[RAX] != 3000 {
		t.Fatalf("RAX = %d, want 3000", c.Ctx.R[RAX])
	}
	st := c.JITStats
	if st.Blocks == 0 {
		t.Fatal("tight loop compiled no superblocks")
	}
	if st.Entries == 0 || st.BlockInsts == 0 {
		t.Fatalf("superblocks never executed: %+v", st)
	}
	// ~4000 dynamic instructions, threshold 16: the overwhelming
	// majority must retire inside blocks.
	if cov := st.Coverage(c.Insts); cov < 0.9 {
		t.Fatalf("coverage = %.2f, want >= 0.9 (%+v, insts=%d)", cov, st, c.Insts)
	}
}

func TestJITOffDisablesEngine(t *testing.T) {
	c := loopCore(t, 1000)
	c.JITOff = true
	if s := runQuanta(t, c, 1000, 200); s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.JITStats != (JITStats{}) {
		t.Fatalf("stats = %+v, want all zero with JIT off", c.JITStats)
	}
}

func TestJITMatchesInterpreterOnLoop(t *testing.T) {
	on := loopCore(t, 500)
	off := loopCore(t, 500)
	off.JITOff = true
	sOn := runQuanta(t, on, 700, 200)
	sOff := runQuanta(t, off, 700, 200)
	if !stopsEqual(sOn, sOff) {
		t.Fatalf("stops differ: %+v vs %+v", sOn, sOff)
	}
	coreStatesEqual(t, "loop", on, off)
	icacheEqual(t, "loop", on, off)
	if on.JITStats.Blocks == 0 {
		t.Fatal("parity test vacuous: no superblocks formed")
	}
}

// smcCore builds a core over an RWX code page plus a stack, for the
// self-modifying-code scenarios.
func smcCore(t *testing.T, code []byte) *Core {
	t.Helper()
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, code); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	c.Ctx.R[RSP] = 0x100000 + mem.PageSize
	return c
}

// TestJITSelfWriteSideExits: a hot loop whose body stores into its own
// code lines (rewriting a byte it never executes, so the bytes are
// unchanged) must side-exit at every such store, evict the block, and
// still execute bit-identically to the interpreter.
func TestJITSelfWriteSideExits(t *testing.T) {
	build := func() []byte {
		return asm(
			Inst{Op: OpMovImm, A: RDI, Imm: 0x103e}, // in the block's code line, past the Hlt
			Inst{Op: OpMovImm, A: RBX, Imm: 0},
			Inst{Op: OpMovImm, A: RCX, Imm: 48},
			// loop (0x101e):
			Inst{Op: OpStoreB, A: RDI, B: RBX, Imm: 0}, // store into own code line
			Inst{Op: OpAddImm, A: RCX, Imm: -1},
			Inst{Op: OpCmpImm, A: RCX, Imm: 0},
			Inst{Op: OpJnz, Imm: -24}, // StoreB=7, AddImm=6, CmpImm=6, Jnz=5
			Inst{Op: OpHlt},
		)
	}
	on := smcCore(t, build())
	off := smcCore(t, build())
	off.JITOff = true
	sOn := runQuanta(t, on, 500, 200)
	sOff := runQuanta(t, off, 500, 200)
	if !stopsEqual(sOn, sOff) {
		t.Fatalf("stops differ: %+v vs %+v", sOn, sOff)
	}
	if sOn.Kind != StopHalt {
		t.Fatalf("stop = %v, want halt", sOn.Kind)
	}
	coreStatesEqual(t, "self-write", on, off)
	if on.CMCViolations != 0 {
		t.Fatalf("same-core SMC must not raise CMC, got %d", on.CMCViolations)
	}
	// The loop gets hot, compiles, and then every executed store evicts:
	// the engine must have observed at least one self-write side exit
	// and at least one eviction, or the test is vacuous.
	st := on.JITStats
	if st.Blocks == 0 {
		t.Fatalf("loop never compiled: %+v", st)
	}
	if st.SelfWrites == 0 {
		t.Fatalf("no self-write side exits recorded: %+v", st)
	}
	if st.Invalidations == 0 {
		t.Fatalf("own store over a superblock recorded no eviction: %+v", st)
	}
}

// TestJITSMCNewBytesExecute: write-then-execute through the core's own
// store path. After a region is compiled, StoreAsSelf over its code must
// bump the page generation, evict the superblock, and make the next
// entry execute the NEW bytes — never replay the compiled closures.
func TestJITSMCNewBytesExecute(t *testing.T) {
	code := asm(
		Inst{Op: OpMovImm, A: RCX, Imm: 200},
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		// loop (0x1014):
		Inst{Op: OpAddImm, A: RAX, Imm: 1},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz, Imm: -23},
		Inst{Op: OpHlt},
	)
	c := smcCore(t, code)
	if s := runQuanta(t, c, 500, 200); s.Kind != StopHalt {
		t.Fatalf("first pass stop = %v", s.Kind)
	}
	if c.JITStats.Blocks == 0 {
		t.Fatal("loop never compiled on first pass")
	}
	evictions := c.JITStats.Invalidations
	// Overwrite the loop head with HLT via the core's own store.
	if err := c.StoreAsSelf(0x1014, []byte{0xF4}); err != nil {
		t.Fatal(err)
	}
	if c.JITStats.Invalidations <= evictions {
		t.Fatalf("own store over a compiled region evicted nothing: %+v", c.JITStats)
	}
	c.Ctx.RIP = 0x1000
	s := runQuanta(t, c, 500, 200)
	if s.Kind != StopHalt || s.Site != 0x1014 {
		t.Fatalf("stop = %+v, want halt at 0x1014 (the rewritten byte)", s)
	}
	if c.CMCViolations != 0 {
		t.Fatalf("same-core SMC must not raise CMC, got %d", c.CMCViolations)
	}
}

// TestJITCrossCoreStaleCMCParity is the P5 scenario with a superblock in
// the way: a compiled, I-cache-resident loop rewritten cross-core
// WITHOUT serialization must still execute the stale resident bytes and
// count exactly the CMC hazards the interpreter counts — the superblock
// bails (without evicting) rather than skipping the staleness
// accounting.
func TestJITCrossCoreStaleCMCParity(t *testing.T) {
	code := asm(
		Inst{Op: OpMovImm, A: RCX, Imm: 64},
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		// loop (0x1014):
		Inst{Op: OpAddImm, A: RAX, Imm: 1},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz, Imm: -23},
		Inst{Op: OpHlt},
	)
	runScenario := func(t *testing.T, jitOff bool) (*Core, Stop) {
		c := smcCore(t, code)
		c.JITOff = jitOff
		// Phase 1: run hot so the loop is compiled and resident.
		if s := runQuanta(t, c, 500, 200); s.Kind != StopHalt {
			t.Fatalf("phase 1 stop = %v", s.Kind)
		}
		// Cross-core rewrite of the loop body: plain AddressSpace store,
		// no invalidation of this core's caches, no serialization.
		if err := c.AS.KStore(0x1014, asm(Inst{Op: OpAddImm, A: RAX, Imm: 7})); err != nil {
			t.Fatal(err)
		}
		// Phase 2: re-enter the stale loop.
		c.Ctx.RIP = 0x1000
		s := runQuanta(t, c, 500, 200)
		return c, s
	}
	on, sOn := runScenario(t, false)
	off, sOff := runScenario(t, true)
	if !stopsEqual(sOn, sOff) {
		t.Fatalf("stops differ: %+v vs %+v", sOn, sOff)
	}
	coreStatesEqual(t, "stale-loop", on, off)
	icacheEqual(t, "stale-loop", on, off)
	// Stale execution means the OLD increment ran: RAX counts 1s, not 7s.
	if on.Ctx.R[RAX] != 64 {
		t.Fatalf("RAX = %d, want 64 (phase 2 executed the stale +1 body)", on.Ctx.R[RAX])
	}
	if on.CMCViolations == 0 {
		t.Fatal("stale cross-modified loop raised no CMC hazard")
	}
	st := on.JITStats
	if st.Blocks == 0 || st.Bails == 0 {
		t.Fatalf("parity test vacuous: %+v (need a compiled block that bailed stale)", st)
	}
	if off.JITStats != (JITStats{}) {
		t.Fatalf("JIT-off run recorded engine activity: %+v", off.JITStats)
	}
}

// TestJITMidBlockFaultParity: a load that faults in the middle of a hot
// superblock must stop with the same fault, at the same site, with the
// same partial retirement the interpreter produces — faulting
// instructions retire (cycles and insts charged) with RIP left at the
// site.
func TestJITMidBlockFaultParity(t *testing.T) {
	build := func() *Core {
		as := mem.NewAddressSpace()
		if err := as.Map(0x1000, mem.PageSize, mem.PermRX, "code"); err != nil {
			t.Fatal(err)
		}
		if err := as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]"); err != nil {
			t.Fatal(err)
		}
		if err := as.Map(0x200000, mem.PageSize, mem.PermRW, "data"); err != nil {
			t.Fatal(err)
		}
		code := asm(
			Inst{Op: OpMovImm, A: RSI, Imm: 0x200000},
			// loop: walk RSI off the end of the data page.
			Inst{Op: OpLoad, A: RAX, B: RSI, Imm: 0},
			Inst{Op: OpAddImm, A: RSI, Imm: 8},
			Inst{Op: OpJmp, Imm: -18}, // Load=7, AddImm=6, Jmp=5
		)
		if err := as.KStore(0x1000, code); err != nil {
			t.Fatal(err)
		}
		c := NewCore(as)
		c.Ctx.RIP = 0x1000
		c.Ctx.R[RSP] = 0x100000 + mem.PageSize
		return c
	}
	on := build()
	off := build()
	off.JITOff = true
	sOn := runQuanta(t, on, 333, 100)
	sOff := runQuanta(t, off, 333, 100)
	if sOn.Kind != StopFault {
		t.Fatalf("stop = %v, want fault walking off the data page", sOn.Kind)
	}
	if !stopsEqual(sOn, sOff) {
		t.Fatalf("stops differ: %+v vs %+v", sOn, sOff)
	}
	if on.Ctx.RIP != sOn.Site {
		t.Fatalf("RIP = %#x, want left at the faulting site %#x", on.Ctx.RIP, sOn.Site)
	}
	coreStatesEqual(t, "mid-block fault", on, off)
	if on.JITStats.BlockInsts == 0 {
		t.Fatal("parity test vacuous: fault never reached via a superblock")
	}
}

// TestJITSyscallBoundaryTraceParity: superblocks end BEFORE kernel-entry
// instructions, so every trap happens between blocks with the identical
// (rip, op) retirement stream the interpreter produces. The driver
// mimics the kernel: serialize (FlushICache) at each syscall entry, zero
// RAX as the return value, resume.
func TestJITSyscallBoundaryTraceParity(t *testing.T) {
	code := asm(
		// RBX counts down: SYSCALL clobbers RCX/R11 (return RIP, flags).
		Inst{Op: OpMovImm, A: RBX, Imm: 32},
		// loop:
		Inst{Op: OpMovImm, A: RAX, Imm: 500},
		Inst{Op: OpSyscall},
		Inst{Op: OpAddImm, A: RBX, Imm: -1},
		Inst{Op: OpCmpImm, A: RBX, Imm: 0},
		Inst{Op: OpJnz, Imm: -29}, // MovImm=10, Syscall=2, AddImm=6, CmpImm=6, Jnz=5
		Inst{Op: OpHlt},
	)
	drive := func(t *testing.T, jitOff bool) (*Core, uint64, uint64) {
		c := smcCore(t, code)
		c.JITOff = jitOff
		h := NewTraceHash()
		c.Trace = &h
		for i := 0; i < 10_000; i++ {
			s := c.Run(97) // deliberately not a multiple of the loop length
			switch s.Kind {
			case StopNone:
			case StopSyscall:
				c.FlushICache() // kernel entry serializes
				c.Ctx.R[RAX] = 0
			case StopHalt:
				return c, uint64(h), c.Insts
			default:
				t.Fatalf("unexpected stop %+v", s)
			}
		}
		t.Fatal("program did not halt")
		return nil, 0, 0
	}
	on, hashOn, stepsOn := drive(t, false)
	off, hashOff, stepsOff := drive(t, true)
	if stepsOn != stepsOff {
		t.Fatalf("step counts differ: %d vs %d", stepsOn, stepsOff)
	}
	if hashOn != hashOff {
		t.Fatalf("trace hashes differ: %#x vs %#x", hashOn, hashOff)
	}
	coreStatesEqual(t, "syscall loop", on, off)
	if on.JITStats.Blocks == 0 || on.JITStats.BlockInsts == 0 {
		t.Fatalf("parity test vacuous: %+v", on.JITStats)
	}
}

// boundaryCode returns code for the two RWX pages at 0x1000: a jump
// from 0x1000 to start, NOP padding, then body. Every Jnz in body
// branches back to body[loop].
func boundaryCode(start uint64, loop int, body ...Inst) []byte {
	addr := make([]uint64, len(body)+1)
	addr[0] = start
	for i, in := range body {
		addr[i+1] = addr[i] + uint64(len(EncodeInst(in)))
	}
	for i := range body {
		if body[i].Op == OpJnz {
			body[i].Imm = int64(addr[loop]) - int64(addr[i+1])
		}
	}
	code := asm(Inst{Op: OpJmp, Imm: int64(start) - 0x1005})
	for uint64(len(code)) < start-0x1000 {
		code = append(code, ByteNop)
	}
	return append(code, asm(body...)...)
}

// Programs that cross the page boundary at 0x2000.
var (
	// boundaryBlock is a hot loop whose superblock (entered at 0x1ffa)
	// covers the last line of the first page and the first of the second.
	boundaryBlock = boundaryCode(0x1ff0, 1,
		Inst{Op: OpMovImm, A: RCX, Imm: 40},
		Inst{Op: OpAddImm, A: RCX, Imm: -1}, // 0x1ffa
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},  // 0x2000
		Inst{Op: OpJnz},
		Inst{Op: OpHlt},
	)
	// boundaryInst loops over a MOV straddling the line and page
	// boundary (0x1ff8..0x2001) and stores the counter into its last
	// immediate byte, which lies in the second page.
	boundaryInst = boundaryCode(0x1fe4, 2,
		Inst{Op: OpMovImm, A: RDI, Imm: 0x2001},
		Inst{Op: OpMovImm, A: RCX, Imm: 40},
		Inst{Op: OpMovImm, A: RAX, Imm: 0}, // 0x1ff8
		Inst{Op: OpAdd, A: R8, B: RAX},
		Inst{Op: OpStoreB, A: RDI, B: RCX, Imm: 0},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz},
		Inst{Op: OpHlt},
	)
	// boundaryStore stores into the second page's first line while the
	// superblock entered at 0x1ffe, which covers both pages, is live.
	boundaryStore = boundaryCode(0x1fe0, 3,
		Inst{Op: OpMovImm, A: RDI, Imm: 0x2030},
		Inst{Op: OpMovImm, A: RBX, Imm: ByteNop},
		Inst{Op: OpMovImm, A: RCX, Imm: 40},
		Inst{Op: OpAddImm, A: RCX, Imm: -1}, // 0x1ffe
		Inst{Op: OpStoreB, A: RDI, B: RBX, Imm: 0},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz},
		Inst{Op: OpHlt},
	)
)

// boundaryCore maps two adjacent RWX code pages at 0x1000, a stack and
// a data page, and loads code at 0x1000.
func boundaryCore(code []byte) (*Core, bool) {
	as := mem.NewAddressSpace()
	if as.Map(0x1000, 2*mem.PageSize, mem.PermRWX, "code") != nil {
		return nil, false
	}
	if as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]") != nil {
		return nil, false
	}
	if as.Map(0x200000, mem.PageSize, mem.PermRW, "data") != nil {
		return nil, false
	}
	if len(code) > 2*int(mem.PageSize) {
		code = code[:2*mem.PageSize]
	}
	if as.KStore(0x1000, code) != nil {
		return nil, false
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	c.Ctx.R[RSP] = 0x100000 + mem.PageSize
	return c, true
}

// TestCodeCachePageBoundary: code that crosses a page boundary — a
// superblock over both pages, an instruction straddling the line and
// page boundary and rewritten by its own loop, and a store into the
// second page under a live two-page superblock — runs the same with
// the JIT, with the decode cache alone and with neither, and leaves
// the same resident lines.
func TestCodeCachePageBoundary(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []byte
		// engaged reports what the case must have exercised.
		engaged func(jit, interp *Core) bool
	}{
		{"block", boundaryBlock, func(jit, _ *Core) bool { return jit.JITStats.BlockInsts > 0 }},
		{"inst", boundaryInst, func(_, interp *Core) bool {
			// The rewritten immediate byte reached RAX, through a
			// re-decode after the own store dropped the entry.
			return interp.Ctx.R[R8] != 0 && interp.DecodeStats.Invalidations > 0
		}},
		{"store", boundaryStore, func(jit, _ *Core) bool {
			return jit.JITStats.SelfWrites > 0 && jit.JITStats.Invalidations > 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jit, _ := boundaryCore(tc.code)
			interp, _ := boundaryCore(tc.code)
			interp.JITOff = true
			uncached, _ := boundaryCore(tc.code)
			uncached.DecodeCacheOff = true
			var stops [3]Stop
			for i, c := range []*Core{jit, interp, uncached} {
				stops[i] = runQuanta(t, c, 37, 1000)
			}
			if stops[0].Kind != StopHalt || !stopsEqual(stops[0], stops[1]) || !stopsEqual(stops[0], stops[2]) {
				t.Fatalf("stops: jit %+v, interp %+v, uncached %+v", stops[0], stops[1], stops[2])
			}
			coreStatesEqual(t, "jit vs interp", jit, interp)
			coreStatesEqual(t, "jit vs uncached", jit, uncached)
			icacheEqual(t, "jit vs interp", jit, interp)
			icacheEqual(t, "jit vs uncached", jit, uncached)
			if jit.JITStats.Blocks == 0 || !tc.engaged(jit, interp) {
				t.Fatalf("vacuous: JIT %+v, decode cache %+v, R8 %#x",
					jit.JITStats, interp.DecodeStats, interp.Ctx.R[R8])
			}
		})
	}
}

// FuzzSuperblockFormation feeds arbitrary bytes to two cores — JIT on
// and JIT off — through a kernel-shaped schedule that restarts at the
// entry point on every stop (which makes the entry hot and forces
// compilation over whatever the bytes decode to). Every round must
// agree on the stop, the architectural state, and the resident-line
// set. The code spans two pages, so blocks, instructions and stores
// can cross the boundary between them.
func FuzzSuperblockFormation(f *testing.F) {
	f.Add(asm(
		Inst{Op: OpMovImm, A: RCX, Imm: 40},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz, Imm: -17},
		Inst{Op: OpHlt},
	))
	f.Add(asm( // straight line into a syscall
		Inst{Op: OpMovImm, A: RAX, Imm: 500},
		Inst{Op: OpMovRR, A: RDI, B: RAX},
		Inst{Op: OpSyscall},
	))
	f.Add(asm( // self-modifying: store over own line
		Inst{Op: OpMovImm, A: RDI, Imm: 0x1030},
		Inst{Op: OpMovImm, A: RBX, Imm: 0xF4},
		Inst{Op: OpStoreB, A: RDI, B: RBX, Imm: 0}, // at 0x1014
		Inst{Op: OpJmp, Imm: -12},                  // back to the StoreB
	))
	f.Add(asm( // call/ret across lines
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1040},
		Inst{Op: OpCallReg, A: RAX},
		Inst{Op: OpHlt},
	))
	f.Add(asm( // load walking off the mapped data page
		Inst{Op: OpMovImm, A: RSI, Imm: 0x200ff0},
		Inst{Op: OpLoad, A: RAX, B: RSI, Imm: 0},
		Inst{Op: OpAddImm, A: RSI, Imm: 8},
		Inst{Op: OpJmp, Imm: -18},
	))
	f.Add([]byte{0x90, 0x0F, 0x05, 0xEB, 0xFE, 0xCC}) // nop;syscall;spin;int3
	f.Add([]byte{0xEB, 0xFE})                         // jmp .-2
	f.Add([]byte{0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90})
	f.Add(boundaryBlock)
	f.Add(boundaryInst)
	f.Add(boundaryStore)

	f.Fuzz(func(t *testing.T, data []byte) {
		on, ok := boundaryCore(data)
		if !ok {
			return
		}
		off, _ := boundaryCore(data)
		off.JITOff = true
		for round := 0; round < 60; round++ {
			sOn := on.Run(181)
			sOff := off.Run(181)
			if !stopsEqual(sOn, sOff) {
				t.Fatalf("round %d: stops differ: %+v vs %+v", round, sOn, sOff)
			}
			coreStatesEqual(t, fmt.Sprintf("round %d", round), on, off)
			icacheEqual(t, fmt.Sprintf("round %d", round), on, off)
			if t.Failed() {
				t.FailNow()
			}
			if sOn.Kind != StopNone {
				// Kernel-shaped restart: serialize on kernel entries, then
				// re-enter at the top (this is what makes 0x1000 hot).
				if sOn.Kind == StopSyscall || sOn.Kind == StopSysenter {
					on.FlushICache()
					off.FlushICache()
					on.Ctx.R[RAX] = 0
					off.Ctx.R[RAX] = 0
				}
				on.Ctx.RIP = 0x1000
				off.Ctx.RIP = 0x1000
				on.Ctx.R[RSP] = 0x100000 + mem.PageSize
				off.Ctx.R[RSP] = 0x100000 + mem.PageSize
			}
		}
	})
}

// TestOpTable checks the op table that Step and superblocks share:
// every op Decode can return has an entry, every op a superblock may
// hold has a real one (not the illegal-instruction entry), and an op
// without an entry stops with StopIll at its site under Step.
func TestOpTable(t *testing.T) {
	decodable := map[Op]bool{}
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			var buf [MaxInstLen]byte
			buf[0], buf[1] = byte(b0), byte(b1)
			if n, _ := EncodedLen(buf[0], buf[1], 2); n > 0 {
				if inst, err := Decode(buf[:n]); err == nil {
					decodable[inst.Op] = true
				}
			}
		}
	}
	if len(decodable) != len(opNames)-1 { // all but OpInvalid
		t.Errorf("two-byte sweep decoded %d ops, want %d", len(decodable), len(opNames)-1)
	}
	for op := range decodable {
		if ops[op] == nil {
			t.Errorf("%v: Decode returns it but it has no entry", op)
		}
	}
	illPC := reflect.ValueOf(ill).Pointer()
	for i := 0; i < 256; i++ {
		if op := Op(i); jitIncludable(op) && (ops[op] == nil || reflect.ValueOf(ops[op]).Pointer() == illPC) {
			t.Errorf("%v: superblocks may hold it but its entry is %v", op, ops[op])
		}
	}

	// No decoder yields an op without an entry, so plant one in the
	// decode cache: the NOP at 0x1000, once decoded, is replayed from it.
	if ops[OpInvalid] != nil {
		t.Fatal("OpInvalid has an entry")
	}
	c := buildCore(t, asm(Inst{Op: OpNop}))
	if s := c.Step(); s.Kind != StopNone {
		t.Fatalf("nop: %+v", s)
	}
	ln := c.line(0x1000 / cacheLineSize)
	ln.dec.insts[0].Op = OpInvalid
	c.Ctx.RIP = 0x1000
	s := c.Step()
	if s.Kind != StopIll || s.Site != 0x1000 || c.Ctx.RIP != 0x1000 || c.Insts != 2 {
		t.Fatalf("op without an entry: stop %+v, rip %#x, insts %d; want StopIll at 0x1000, rip unmoved, 2 retired",
			s, c.Ctx.RIP, c.Insts)
	}
	if c.DecodeStats.Hits != 1 {
		t.Fatalf("second step did not replay the planted entry: %+v", c.DecodeStats)
	}
}
