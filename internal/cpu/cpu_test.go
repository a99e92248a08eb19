package cpu

import (
	"bytes"
	"testing"
	"testing/quick"

	"k23/internal/mem"
)

// buildSpace maps a code page at codeBase and a stack, loads code, and
// returns a ready core.
func buildCore(t *testing.T, code []byte) *Core {
	t.Helper()
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, 4*mem.PageSize, mem.PermRX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x100000, 4*mem.PageSize, mem.PermRW, "[stack]"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, code); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	c.Ctx.R[RSP] = 0x100000 + 4*mem.PageSize
	return c
}

func run(t *testing.T, c *Core, maxSteps int) Stop {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if s := c.Step(); s.Kind != StopNone {
			return s
		}
	}
	t.Fatal("program did not stop")
	return Stop{}
}

func asm(insts ...Inst) []byte {
	var out []byte
	for _, i := range insts {
		out = append(out, EncodeInst(i)...)
	}
	return out
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpNop, Len: 1},
		{Op: OpSyscall, Len: 2},
		{Op: OpSysenter, Len: 2},
		{Op: OpCpuid, Len: 2},
		{Op: OpMfence, Len: 2},
		{Op: OpUd2, Len: 2},
		{Op: OpRdtsc, Len: 2},
		{Op: OpWrpkru, Len: 2},
		{Op: OpRdpkru, Len: 2},
		{Op: OpHostcall, Len: 6, Imm: 77},
		{Op: OpCallReg, Len: 2, A: RAX},
		{Op: OpCallReg, Len: 2, A: R15},
		{Op: OpJmpReg, Len: 2, A: RBX},
		{Op: OpMovImm, Len: 10, A: RDI, Imm: -1},
		{Op: OpMovImm32, Len: 6, A: R10, Imm: 0xfffff},
		{Op: OpMovRR, Len: 3, A: RAX, B: RBX},
		{Op: OpAdd, Len: 3, A: RCX, B: RDX},
		{Op: OpSub, Len: 3, A: RCX, B: RDX},
		{Op: OpXor, Len: 3, A: R8, B: R8},
		{Op: OpAnd, Len: 3, A: R9, B: R10},
		{Op: OpOr, Len: 3, A: R9, B: R10},
		{Op: OpMul, Len: 3, A: RAX, B: RBX},
		{Op: OpAddImm, Len: 6, A: RSP, Imm: -32},
		{Op: OpShl, Len: 3, A: RAX, Imm: 12},
		{Op: OpShr, Len: 3, A: RAX, Imm: 3},
		{Op: OpCmp, Len: 3, A: RAX, B: RBX},
		{Op: OpCmpImm, Len: 6, A: RAX, Imm: 500},
		{Op: OpTest, Len: 3, A: RAX, B: RAX},
		{Op: OpLoad, Len: 7, A: RAX, B: RSP, Imm: 16},
		{Op: OpLoadB, Len: 7, A: RAX, B: RDI, Imm: -1},
		{Op: OpStore, Len: 7, A: RSP, B: RAX, Imm: 8},
		{Op: OpStoreB, Len: 7, A: RDI, B: RAX, Imm: 0},
		{Op: OpStoreW, Len: 7, A: RDI, B: RAX, Imm: 2},
		{Op: OpCall, Len: 5, Imm: 100},
		{Op: OpJmp, Len: 5, Imm: -100},
		{Op: OpJz, Len: 5, Imm: 4},
		{Op: OpJnz, Len: 5, Imm: 4},
		{Op: OpJl, Len: 5, Imm: 4},
		{Op: OpJge, Len: 5, Imm: 4},
		{Op: OpJle, Len: 5, Imm: 4},
		{Op: OpJg, Len: 5, Imm: 4},
		{Op: OpRet, Len: 1},
		{Op: OpPush, Len: 2, A: RBP},
		{Op: OpPop, Len: 2, A: RBP},
		{Op: OpHlt, Len: 1},
		{Op: OpInt3, Len: 1},
	}
	for _, want := range cases {
		enc := EncodeInst(want)
		if len(enc) != int(want.Len) {
			t.Errorf("%v: encoded length %d, want %d", want, len(enc), want.Len)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Errorf("%v: decode: %v", want, err)
			continue
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestSyscallEncodingMatchesX86(t *testing.T) {
	// The paper's size arithmetic depends on these exact encodings.
	if !bytes.Equal(SyscallBytes, []byte{0x0f, 0x05}) {
		t.Fatalf("SYSCALL = % x", SyscallBytes)
	}
	if !bytes.Equal(SysenterBytes, []byte{0x0f, 0x34}) {
		t.Fatalf("SYSENTER = % x", SysenterBytes)
	}
	if !bytes.Equal(CallRaxBytes, []byte{0xff, 0xd0}) {
		t.Fatalf("callq *%%rax = % x", CallRaxBytes)
	}
	if len(SyscallBytes) != len(CallRaxBytes) {
		t.Fatal("rewrite is not size-preserving")
	}
}

func TestSyscallSetsRCXandR11(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 39},
		Inst{Op: OpSyscall},
	))
	s := run(t, c, 10)
	if s.Kind != StopSyscall {
		t.Fatalf("stop = %v", s.Kind)
	}
	if s.Site != 0x1000+10 {
		t.Fatalf("site = %#x", s.Site)
	}
	if c.Ctx.R[RCX] != 0x1000+12 {
		t.Fatalf("rcx = %#x, want return RIP", c.Ctx.R[RCX])
	}
	if c.Ctx.RIP != 0x1000+12 {
		t.Fatalf("rip = %#x", c.Ctx.RIP)
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 10},
		Inst{Op: OpMovImm, A: RBX, Imm: 10},
		Inst{Op: OpSub, A: RAX, B: RBX}, // rax = 0, ZF
		Inst{Op: OpJnz, Imm: 100},       // not taken
		Inst{Op: OpMovImm, A: RCX, Imm: 1},
		Inst{Op: OpHlt},
	))
	s := run(t, c, 20)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v at %#x", s.Kind, s.Site)
	}
	if c.Ctx.R[RCX] != 1 {
		t.Fatal("JNZ taken despite ZF")
	}
}

func TestLoop(t *testing.T) {
	// Count down from 5.
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 5},
		Inst{Op: OpMovImm, A: RBX, Imm: 0},
		// loop: rbx++ ; rax-- ; jnz loop
		Inst{Op: OpAddImm, A: RBX, Imm: 1},
		Inst{Op: OpAddImm, A: RAX, Imm: -1},
		Inst{Op: OpJnz, Imm: -17}, // back to rbx++ (6+6+5 bytes)
		Inst{Op: OpHlt},
	))
	s := run(t, c, 100)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.Ctx.R[RBX] != 5 {
		t.Fatalf("loop ran %d times, want 5", c.Ctx.R[RBX])
	}
}

func TestCallRet(t *testing.T) {
	// call +5 (skip hlt); callee: rax=7; ret -> hlt
	c := buildCore(t, asm(
		Inst{Op: OpCall, Imm: 1}, // to 0x1006
		Inst{Op: OpHlt},          // 0x1005
		Inst{Op: OpMovImm, A: RAX, Imm: 7},
		Inst{Op: OpRet},
	))
	s := run(t, c, 20)
	if s.Kind != StopHalt || c.Ctx.R[RAX] != 7 {
		t.Fatalf("stop=%v rax=%d", s.Kind, c.Ctx.R[RAX])
	}
}

func TestCallRegPushesReturnAddress(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1040},
		Inst{Op: OpCallReg, A: RAX}, // at 0x100a, next = 0x100c
		Inst{Op: OpHlt},
	))
	// Target 0x1040: load return address from stack into RBX, halt.
	tgt := asm(
		Inst{Op: OpLoad, A: RBX, B: RSP, Imm: 0},
		Inst{Op: OpHlt},
	)
	if err := c.AS.KStore(0x1040, tgt); err != nil {
		t.Fatal(err)
	}
	s := run(t, c, 20)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.Ctx.R[RBX] != 0x100c {
		t.Fatalf("return addr on stack = %#x, want 0x100c", c.Ctx.R[RBX])
	}
}

func TestNullCallFaultsWhenPage0Unmapped(t *testing.T) {
	// Baseline Linux behaviour the trampoline breaks: calling a NULL
	// pointer faults because page 0 is unmapped.
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		Inst{Op: OpCallReg, A: RAX},
	))
	s := run(t, c, 10)
	if s.Kind != StopFault {
		t.Fatalf("stop = %v, want fault", s.Kind)
	}
	if s.Fault.Addr != 0 || s.Fault.Access != mem.AccessExec {
		t.Fatalf("fault = %+v", s.Fault)
	}
}

func TestMemoryFaultLeavesRIP(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RDI, Imm: 0xdead000},
		Inst{Op: OpLoad, A: RAX, B: RDI, Imm: 0},
	))
	s := run(t, c, 10)
	if s.Kind != StopFault {
		t.Fatalf("stop = %v", s.Kind)
	}
	if c.Ctx.RIP != 0x100a {
		t.Fatalf("rip = %#x, want faulting instruction", c.Ctx.RIP)
	}
}

func TestPushPop(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 1234},
		Inst{Op: OpPush, A: RAX},
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		Inst{Op: OpPop, A: RBX},
		Inst{Op: OpHlt},
	))
	run(t, c, 20)
	if c.Ctx.R[RBX] != 1234 {
		t.Fatalf("rbx = %d", c.Ctx.R[RBX])
	}
}

func TestHostcallStop(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpHostcall, Imm: 42},
	))
	s := run(t, c, 5)
	if s.Kind != StopHostcall || s.HostcallID != 42 {
		t.Fatalf("stop = %+v", s)
	}
}

func TestWrpkruRdpkru(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpMovImm, A: RAX, Imm: 0b1100},
		Inst{Op: OpWrpkru},
		Inst{Op: OpMovImm, A: RAX, Imm: 0},
		Inst{Op: OpRdpkru},
		Inst{Op: OpHlt},
	))
	run(t, c, 20)
	if c.PKRU != mem.PKRU(0b1100) || c.Ctx.R[RAX] != 0b1100 {
		t.Fatalf("pkru = %#x rax = %#x", c.PKRU, c.Ctx.R[RAX])
	}
}

func TestUd2AndBadBytesStopIll(t *testing.T) {
	c := buildCore(t, asm(Inst{Op: OpUd2}))
	if s := run(t, c, 5); s.Kind != StopIll {
		t.Fatalf("ud2 stop = %v", s.Kind)
	}
	c2 := buildCore(t, []byte{0xAB}) // undefined opcode
	if s := run(t, c2, 5); s.Kind != StopIll {
		t.Fatalf("bad byte stop = %v", s.Kind)
	}
}

func TestSelfModifyingSameCoreIsCoherent(t *testing.T) {
	// x86-64 handles same-core self-modifying code transparently: our
	// model invalidates the core's own cached lines on its own stores.
	//
	// Code: make the code page writable is not needed (PermRWX at build).
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x100000, mem.PageSize, mem.PermRW, "[stack]"); err != nil {
		t.Fatal(err)
	}
	// Program: store HLT opcode over the NOP at 0x1040, jump there.
	prog := asm(
		Inst{Op: OpMovImm, A: RDI, Imm: 0x1040},
		Inst{Op: OpMovImm, A: RBX, Imm: 0xF4}, // HLT opcode
		Inst{Op: OpStoreB, A: RDI, B: RBX, Imm: 0},
		Inst{Op: OpMovImm, A: RAX, Imm: 0x1040},
		Inst{Op: OpJmpReg, A: RAX},
	)
	if err := as.KStore(0x1000, prog); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1040, []byte{ByteNop}); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	c.Ctx.R[RSP] = 0x101000

	// Warm the icache over 0x1040 by pre-fetching the line.
	if _, err := c.fetchByte(0x1040); err != nil {
		t.Fatal(err)
	}
	s := run(t, c, 20)
	if s.Kind != StopHalt {
		t.Fatalf("stop = %v (self-modifying store not visible to own core)", s.Kind)
	}
	if c.CMCViolations != 0 {
		t.Fatalf("own-store should not be a CMC violation, got %d", c.CMCViolations)
	}
}

func TestCrossCoreStaleICache(t *testing.T) {
	// Core B caches a SYSCALL line; core A (a different core, i.e. a
	// different Core over the same AddressSpace) rewrites it without
	// serialization. B keeps executing the stale bytes: a CMC violation.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	code := asm(Inst{Op: OpMovImm, A: RAX, Imm: 500}, Inst{Op: OpSyscall})
	if err := as.KStore(0x1000, code); err != nil {
		t.Fatal(err)
	}

	b := NewCore(as)
	b.Ctx.RIP = 0x1000
	if s := b.Step(); s.Kind != StopNone {
		t.Fatalf("mov stop = %v", s.Kind)
	}
	if s := b.Step(); s.Kind != StopSyscall {
		t.Fatalf("first syscall stop = %v", s.Kind)
	}

	// Core A rewrites the syscall to callq *%rax.
	if err := as.KStore(0x1000+10, CallRaxBytes); err != nil {
		t.Fatal(err)
	}

	// B loops back without serializing and re-executes: stale bytes.
	b.Ctx.RIP = 0x1000 + 10
	s := b.Step()
	if s.Kind != StopSyscall {
		t.Fatalf("stale fetch executed %v, want stale syscall", s.Kind)
	}
	if b.CMCViolations != 1 {
		t.Fatalf("CMCViolations = %d, want 1", b.CMCViolations)
	}
	if b.LastCMC == nil || b.LastCMC.Addr != 0x100a {
		t.Fatalf("LastCMC = %+v", b.LastCMC)
	}

	// After serialization (flush, as the kernel does on any trap), B
	// sees the rewrite.
	b.FlushICache()
	b.Ctx.RIP = 0x1000 + 10
	b.Ctx.R[RAX] = 0x1000 // jump target for call *%rax: the mov at start
	s = b.Step()
	if s.Kind == StopSyscall {
		t.Fatal("still executing stale syscall after flush")
	}
}

func TestTornWriteVisibleCrossCore(t *testing.T) {
	// A half-completed two-byte rewrite (lazypoline's non-atomic store)
	// leaves FF 05 in memory: an undecodable/foreign instruction.
	as := mem.NewAddressSpace()
	if err := as.Map(0x1000, mem.PageSize, mem.PermRWX, "code"); err != nil {
		t.Fatal(err)
	}
	if err := as.KStore(0x1000, SyscallBytes); err != nil {
		t.Fatal(err)
	}
	// First byte of the rewrite lands; second has not yet.
	if err := as.KStore(0x1000, []byte{BytePrefixFF}); err != nil {
		t.Fatal(err)
	}
	c := NewCore(as)
	c.Ctx.RIP = 0x1000
	s := c.Step()
	if s.Kind != StopIll {
		t.Fatalf("torn instruction executed as %v, want ill", s.Kind)
	}
}

func TestRdtscReturnsCycles(t *testing.T) {
	c := buildCore(t, asm(
		Inst{Op: OpNop}, Inst{Op: OpNop},
		Inst{Op: OpRdtsc},
		Inst{Op: OpHlt},
	))
	run(t, c, 10)
	if c.Ctx.R[RAX] == 0 {
		t.Fatal("rdtsc returned 0 cycles")
	}
}

func TestConditionalBranches(t *testing.T) {
	cases := []struct {
		name  string
		a, b  int64
		op    Op
		taken bool
	}{
		{"jz equal", 5, 5, OpJz, true},
		{"jz unequal", 5, 6, OpJz, false},
		{"jnz unequal", 5, 6, OpJnz, true},
		{"jl less", 3, 5, OpJl, true},
		{"jl greater", 7, 5, OpJl, false},
		{"jge greater", 7, 5, OpJge, true},
		{"jge equal", 5, 5, OpJge, true},
		{"jg greater", 7, 5, OpJg, true},
		{"jg equal", 5, 5, OpJg, false},
		{"jle less", 3, 5, OpJle, true},
		{"jle equal", 5, 5, OpJle, true},
		{"jle greater", 7, 5, OpJle, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildCore(t, asm(
				Inst{Op: OpMovImm, A: RAX, Imm: tc.a},
				Inst{Op: OpMovImm, A: RBX, Imm: tc.b},
				Inst{Op: OpCmp, A: RAX, B: RBX},
				Inst{Op: tc.op, Imm: 7}, // skip mov rcx,1 (6B) + hlt (1B)
				Inst{Op: OpMovImm32, A: RCX, Imm: 1},
				Inst{Op: OpHlt},
				Inst{Op: OpMovImm32, A: RCX, Imm: 2},
				Inst{Op: OpHlt},
			))
			run(t, c, 20)
			want := uint64(1)
			if tc.taken {
				want = 2
			}
			if c.Ctx.R[RCX] != want {
				t.Fatalf("rcx = %d, want %d", c.Ctx.R[RCX], want)
			}
		})
	}
}

// Property: Decode(EncodeInst(i)) == i for register/immediate ops across
// random operands.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(a, b uint8, imm int32) bool {
		ra, rb := Reg(a%NumRegs), Reg(b%NumRegs)
		insts := []Inst{
			{Op: OpMovRR, Len: 3, A: ra, B: rb},
			{Op: OpAdd, Len: 3, A: ra, B: rb},
			{Op: OpAddImm, Len: 6, A: ra, Imm: int64(imm)},
			{Op: OpLoad, Len: 7, A: ra, B: rb, Imm: int64(imm)},
			{Op: OpStore, Len: 7, A: ra, B: rb, Imm: int64(imm)},
			{Op: OpJmp, Len: 5, Imm: int64(imm)},
			{Op: OpMovImm, Len: 10, A: ra, Imm: int64(imm) * 7919},
		}
		for _, want := range insts {
			got, err := Decode(EncodeInst(want))
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding never reads past MaxInstLen and always either yields
// a positive length or an error, on arbitrary byte soup.
func TestQuickDecodeTotal(t *testing.T) {
	f := func(b []byte) bool {
		if len(b) == 0 {
			return true
		}
		inst, err := Decode(b)
		if err != nil {
			return true
		}
		return inst.Len > 0 && inst.Len <= MaxInstLen && int(inst.Len) <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstStringSmoke(t *testing.T) {
	// String must not panic and must be non-empty for every op.
	for op := OpNop; op <= OpInt3; op++ {
		i := Inst{Op: op, A: RAX, B: RBX, Imm: 4}
		if i.String() == "" {
			t.Fatalf("empty String for op %d", op)
		}
	}
}
