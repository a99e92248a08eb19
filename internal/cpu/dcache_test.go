package cpu

import (
	"testing"
	"unsafe"

	"k23/internal/mem"
)

// loopCore builds a core running a small counted loop: RCX counts down
// from n, the loop body is a handful of ALU ops.
func loopCore(t *testing.T, n int64) *Core {
	t.Helper()
	code := asm(
		Inst{Op: OpMovImm, A: RCX, Imm: n},
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		// loop:
		Inst{Op: OpAddImm, A: RAX, Imm: 3},
		Inst{Op: OpAddImm, A: RCX, Imm: -1},
		Inst{Op: OpCmpImm, A: RCX, Imm: 0},
		Inst{Op: OpJnz, Imm: -23}, // back to loop: (AddImm=6+6, CmpImm=6, Jnz=5)
		Inst{Op: OpHlt},
	)
	return buildCore(t, code)
}

func TestDecodeCacheHitsOnLoop(t *testing.T) {
	c := loopCore(t, 1000)
	s := run(t, c, 100_000)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.Ctx.R[RAX] != 3000 {
		t.Fatalf("RAX = %d, want 3000", c.Ctx.R[RAX])
	}
	st := c.DecodeStats
	if st.Hits == 0 {
		t.Fatal("no decode cache hits on a tight loop")
	}
	// 7 static instructions; everything beyond the first decode of each
	// should hit.
	if st.Misses > 7 {
		t.Fatalf("misses = %d, want <= 7 (static instruction count)", st.Misses)
	}
	if got := st.HitRate(); got < 0.99 {
		t.Fatalf("hit rate = %f, want >= 0.99", got)
	}
}

func TestDecodeCacheOffDisablesCache(t *testing.T) {
	c := loopCore(t, 100)
	c.DecodeCacheOff = true
	if s := run(t, c, 10_000); s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.DecodeStats != (DecodeCacheStats{}) {
		t.Fatalf("stats = %+v, want all zero with cache off", c.DecodeStats)
	}
}

func TestDecodeCacheOffMatchesCachedExecution(t *testing.T) {
	on := loopCore(t, 500)
	off := loopCore(t, 500)
	off.DecodeCacheOff = true
	sOn := run(t, on, 100_000)
	sOff := run(t, off, 100_000)
	if sOn.Kind != sOff.Kind {
		t.Fatalf("stop kinds differ: %v vs %v", sOn.Kind, sOff.Kind)
	}
	if on.Ctx != off.Ctx {
		t.Fatalf("final contexts differ:\n on: %+v\noff: %+v", on.Ctx, off.Ctx)
	}
	if on.Insts != off.Insts || on.Cycles != off.Cycles {
		t.Fatalf("insts/cycles differ: %d/%d vs %d/%d",
			on.Insts, on.Cycles, off.Insts, off.Cycles)
	}
}

// TestFlushEpoch: a flush makes every line non-resident without
// dropping it, the refill reuses the line's storage, and a snapshot
// holds only resident lines.
func TestFlushEpoch(t *testing.T) {
	c := loopCore(t, 10)
	c.Step()
	ln := c.resident(0x1000 / cacheLineSize)
	if ln == nil {
		t.Fatal("code line not resident after a step")
	}
	c.FlushICache()
	if c.resident(0x1000/cacheLineSize) != nil || len(c.SnapshotState().ICache) != 0 {
		t.Fatal("line still resident after FlushICache")
	}
	c.Step()
	if got := c.resident(0x1000 / cacheLineSize); got != ln {
		t.Fatalf("refill installed %p, want the stale line %p reused", got, ln)
	}
	if n := len(c.SnapshotState().ICache); n != 1 {
		t.Fatalf("snapshot holds %d lines, want 1", n)
	}
	// The decoded-entry mask took the slot from 184 to 192 bytes, which
	// is the same allocation size class.
	if n := unsafe.Sizeof(cacheLine{}); n != 192 {
		t.Fatalf("cacheLine is %d bytes, want 192", n)
	}
}

// TestWarmLoopAllocs: once warm, a slice of a superblock loop and of a
// loop storing to its stack allocates nothing: dispatch, the lazy line
// checks and the own-store invalidation all run without the heap.
func TestWarmLoopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *Core
	}{
		{"superblock", loopCore(t, 1<<40)},
		{"stack-store", buildCore(t, asm(
			Inst{Op: OpMovImm, A: RCX, Imm: 1 << 40},
			// loop:
			Inst{Op: OpPush, A: RCX},
			Inst{Op: OpStore, A: RSP, B: RCX, Imm: -16},
			Inst{Op: OpPop, A: RBX},
			Inst{Op: OpAddImm, A: RCX, Imm: -1},
			Inst{Op: OpCmpImm, A: RCX, Imm: 0},
			Inst{Op: OpJnz, Imm: -28}, // Push=2, Store=7, Pop=2, AddImm=6, CmpImm=6, Jnz=5
			Inst{Op: OpHlt},
		))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.Run(10_000)
			if n := testing.AllocsPerRun(20, func() {
				c.FlushICache() // as every kernel entry does
				c.Run(10_000)
			}); n != 0 {
				t.Errorf("warm slice: %v allocations, want 0", n)
			}
			if c.JITStats.BlockInsts == 0 || c.Ctx.R[RCX] > 1<<40-1000 {
				t.Fatalf("loop did not run in superblocks: %+v, RCX %#x", c.JITStats, c.Ctx.R[RCX])
			}
		})
	}
}

func TestDecodeCacheSurvivesFlush(t *testing.T) {
	// FlushICache is a serialization point for the I-cache, but the
	// decode cache is generation-checked: with memory unmodified, entries
	// keep hitting across flushes (the kernel flushes on every syscall,
	// so this is the hot path of every benchmark).
	c := loopCore(t, 10)
	for i := 0; i < 3; i++ {
		c.Step()
	}
	hits0 := c.DecodeStats.Hits
	c.FlushICache()
	c.Ctx.RIP = 0x1000 // restart the program
	c.Ctx.R[RCX] = 0
	for i := 0; i < 3; i++ {
		c.Step()
	}
	if c.DecodeStats.Hits <= hits0 {
		t.Fatalf("no hits after FlushICache: %d -> %d (entries should survive via gen check)",
			hits0, c.DecodeStats.Hits)
	}
	if c.CMCViolations != 0 {
		t.Fatalf("CMC violations = %d on unmodified code", c.CMCViolations)
	}
}

func TestDecodeCacheOwnStoreInvalidates(t *testing.T) {
	// Same-core self-modifying code: the core's own store must drop the
	// decoded entry (and the I-cache line), so the new bytes execute.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]"); err != nil {
		t.Fatal(err)
	}
	prog := asm(
		Inst{Op: OpMovImm, A: RDI, Imm: 0x1040},
		Inst{Op: OpMovImm, A: RBX, Imm: 0xF4}, // HLT opcode
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1040},
		Inst{Op: OpJmpReg, A: RAX},
	)
	if err := as.KStore(0x1000, prog); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1040, []byte{ByteNop, 0xF4}); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	c.Ctx.R[RSP] = 0x100000 + mem.PageSize

	// First pass: execute the NOP at 0x1040 so it is decode-cached.
	if s := run(t, c, 10); s.Kind != StopHalt {
		t.Fatalf("first pass stop = %v", s.Kind)
	}
	// Second pass: overwrite the NOP with HLT via the core's own store.
	c.Ctx.RIP = 0x1000
	prog2 := asm(
		Inst{Op: OpMovImm, A: RDI, Imm: 0x1040},
		Inst{Op: OpMovImm, A: RBX, Imm: 0xF4},
		Inst{Op: OpStoreB, A: RDI, B: RBX, Imm: 0},
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1040},
		Inst{Op: OpJmpReg, A: RAX},
	)
	if err := c.StoreAsSelf(0x1000, prog2); err != nil {
		t.Fatal(err)
	}
	s := run(t, c, 10)
	if s.Kind != StopHalt {
		t.Fatalf("second pass stop = %v, want halt (new bytes must execute)", s.Kind)
	}
	if s.Site != 0x1040 {
		t.Fatalf("halt site = %#x, want 0x1040", s.Site)
	}
	if c.DecodeStats.Invalidations == 0 {
		t.Fatal("own store over a decoded entry recorded no invalidation")
	}
	if c.CMCViolations != 0 {
		t.Fatalf("same-core SMC must not raise CMC, got %d", c.CMCViolations)
	}
}

func TestDecodeCacheCrossCoreStaleParity(t *testing.T) {
	// The P5 scenario from TestCrossCoreStaleICache, run cache-on and
	// cache-off: a cached SYSCALL line rewritten cross-core without
	// serialization must STILL execute stale and raise the same CMC.
	runScenario := func(t *testing.T, off bool) (Stop, uint64, *CMCEvent) {
		as := mem.NewAddressSpace()
		if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
			t.Fatal(err)
		}
		code := asm(Inst{Op: OpMovImm, A: RAX, Imm: 500}, Inst{Op: OpSyscall})
		if err := as.KStore(0x1000, code); err != nil {
			t.Fatal(err)
		}
		b := NewCore(as)
		b.DecodeCacheOff = off
		b.Ctx.RIP = 0x1000
		if s := b.Step(); s.Kind != StopNone {
			t.Fatalf("mov stop = %v", s.Kind)
		}
		if s := b.Step(); s.Kind != StopSyscall {
			t.Fatalf("syscall stop = %v", s.Kind)
		}
		// Cross-core rewrite (plain AddressSpace store: no invalidation
		// of b's caches).
		if err := as.KStore(0x100a, []byte{ByteNop, ByteNop}); err != nil {
			t.Fatal(err)
		}
		b.Ctx.RIP = 0x100a
		s := b.Step()
		return s, b.CMCViolations, b.LastCMC
	}
	sOn, cmcOn, evOn := runScenario(t, false)
	sOff, cmcOff, evOff := runScenario(t, true)
	if sOn.Kind != StopSyscall || sOff.Kind != StopSyscall {
		t.Fatalf("stale SYSCALL must still execute: on=%v off=%v", sOn.Kind, sOff.Kind)
	}
	if cmcOn != 1 || cmcOff != 1 {
		t.Fatalf("CMC violations: on=%d off=%d, want 1/1", cmcOn, cmcOff)
	}
	if evOn == nil || evOff == nil || evOn.Addr != evOff.Addr ||
		string(evOn.Cached) != string(evOff.Cached) ||
		string(evOn.Fresh) != string(evOff.Fresh) {
		t.Fatalf("CMC events differ:\n on: %v\noff: %v", evOn, evOff)
	}
}

func TestDecodeCacheRefetchesAfterFlushWhenModified(t *testing.T) {
	// Torn-write visibility: an entry whose line generation moved while
	// the line is NOT resident (i.e. after serialization) must re-fetch
	// the new bytes, never replay the old decode.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, asm(Inst{Op: OpSyscall})); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	if s := c.Step(); s.Kind != StopSyscall {
		t.Fatalf("stop = %v", s.Kind)
	}
	// Serialize (kernel entry), then modify cross-core.
	c.FlushICache()
	if err := as.KStore(0x1000, []byte{0xF4, 0xF4}); err != nil { // HLT
		t.Fatal(err)
	}
	c.Ctx.RIP = 0x1000
	s := c.Step()
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v, want halt: cache replayed stale SYSCALL after serialization", s.Kind)
	}
	if c.CMCViolations != 0 {
		t.Fatalf("CMC violations = %d; a serialized re-fetch is not a hazard", c.CMCViolations)
	}
}

func TestDecodeCacheNoFalseHitAfterRemap(t *testing.T) {
	// Unmap + fresh Map at the same address must never revive an old
	// decode entry: page generations are issued by a monotone clock and
	// never reused.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, asm(Inst{Op: OpSyscall})); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	if s := c.Step(); s.Kind != StopSyscall {
		t.Fatalf("stop = %v", s.Kind)
	}
	if err := as.Unmap(0x1000, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code2"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, []byte{0xF4}); err != nil { // HLT
		t.Fatal(err)
	}
	c.FlushICache() // mmap goes through the kernel: serialization
	c.Ctx.RIP = 0x1000
	if s := c.Step(); s.Kind != StopHalt {
		t.Fatalf("stop = %v, want halt from the fresh mapping", s.Kind)
	}
}

func TestDecodeCacheProtectRevokesExec(t *testing.T) {
	// mprotect removing exec must be visible: a decode-cache hit may not
	// execute from a page the uncached path would fault on.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, asm(Inst{Op: OpSyscall})); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	if s := c.Step(); s.Kind != StopSyscall {
		t.Fatalf("stop = %v", s.Kind)
	}
	if err := as.Protect(0x1000, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.FlushICache() // mprotect goes through the kernel: serialization
	c.Ctx.RIP = 0x1000
	s := c.Step()
	if s.Kind != StopFault {
		t.Fatalf("stop = %v, want fault after exec revocation", s.Kind)
	}
}

// TestFetchStraddlesCacheLine covers the satellite fix to the fetchInst
// line bookkeeping: a 2-byte instruction straddling a cache-line boundary
// touches two lines but must decode correctly and, when both lines are
// stale, record exactly ONE CMC violation for the one fetch.
func TestFetchStraddlesCacheLine(t *testing.T) {
	for _, off := range []bool{false, true} {
		name := "cache-on"
		if off {
			name = "cache-off"
		}
		t.Run(name, func(t *testing.T) {
			as := mem.NewAddressSpace()
			if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
				t.Fatal(err)
			}
			// SYSCALL (0F 05) at 0x103F: byte 0 ends line
			// [0x1000,0x1040), byte 1 starts line [0x1040,0x1080).
			if err := as.KStore(0x103f, asm(Inst{Op: OpSyscall})); err != nil {
				t.Fatal(err)
			}
			c := NewCore(as)
			c.DecodeCacheOff = off
			c.Ctx.RIP = 0x103f
			if s := c.Step(); s.Kind != StopSyscall {
				t.Fatalf("straddling SYSCALL decoded wrong: stop = %v", s.Kind)
			}
			if c.Ctx.RIP != 0x1041 {
				t.Fatalf("RIP = %#x, want 0x1041", c.Ctx.RIP)
			}
			// Rewrite both bytes cross-core; both lines are now stale.
			if err := as.KStore(0x103f, []byte{ByteNop, ByteNop}); err != nil {
				t.Fatal(err)
			}
			c.Ctx.RIP = 0x103f
			if s := c.Step(); s.Kind != StopSyscall {
				t.Fatalf("stale straddling SYSCALL must still execute: stop = %v", s.Kind)
			}
			if c.CMCViolations != 1 {
				t.Fatalf("CMC violations = %d, want exactly 1 for one straddling fetch",
					c.CMCViolations)
			}
		})
	}
}
