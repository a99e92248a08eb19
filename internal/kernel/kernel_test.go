package kernel_test

import (
	"errors"
	"fmt"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
	"k23/internal/mem"
)

func newWorld(t testing.TB) (*kernel.Kernel, *loader.Loader, *image.Registry) {
	t.Helper()
	k := kernel.New()
	reg := image.NewRegistry()
	reg.MustAdd(libc.Image())
	l := loader.New(k, reg)
	return k, l, reg
}

func spawnAndRun(t *testing.T, k *kernel.Kernel, l *loader.Loader, path string, opts ...loader.SpawnOption) *kernel.Process {
	t.Helper()
	p, err := l.Spawn(path, []string{path}, nil, opts...)
	if err != nil {
		t.Fatalf("Spawn(%s): %v", path, err)
	}
	if err := k.RunUntilExit(p, 50_000_000); err != nil {
		t.Fatalf("RunUntilExit(%s): %v", path, err)
	}
	return p
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/unknown")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, 500)
	tx.Syscall()
	// exit_group(rax == -ENOSYS ? 0 : 1)
	tx.CmpImm(cpu.RAX, -int32(38))
	tx.Jz(".good")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".good")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/unknown")
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; syscall 500 did not return -ENOSYS", p.Exit)
	}
}

// buildSUDProgram builds a program that installs a SIGSYS handler, arms
// SUD, triggers one intercepted syscall (getpid), and exits 0 if the
// handler's emulated return value (777) arrived in RAX.
func buildSUDProgram() *image.Image {
	b := asm.NewBuilder("/bin/sudtest")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".selector").Raw(0)
	tx := b.Text()

	// SIGSYS handler: ucontext in RDX. Emulate the syscall by writing
	// 777 into the saved RAX, flip the selector to allow, sigreturn.
	tx.Label(".handler")
	tx.MovImm32(cpu.RAX, 777)
	tx.Store(cpu.RDX, kernel.UctxRegs+8*int32(cpu.RAX), cpu.RAX)
	tx.MovImmSym(cpu.R11, ".selector")
	tx.MovImm32(cpu.R10, kernel.SelectorAllow)
	tx.StoreB(cpu.R11, 0, cpu.R10)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()

	tx.Label("_start")
	// sigaction(SIGSYS, .handler)
	tx.MovImm32(cpu.RDI, kernel.SIGSYS)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	// prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, 0, 0, &selector)
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOn)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm32(cpu.R10, 0)
	tx.MovImmSym(cpu.R8, ".selector")
	tx.CallSym("prctl")
	// selector = BLOCK
	tx.MovImmSym(cpu.R11, ".selector")
	tx.MovImm32(cpu.R10, kernel.SelectorBlock)
	tx.StoreB(cpu.R11, 0, cpu.R10)
	// getpid — must be intercepted and emulated as 777.
	tx.CallSym("getpid")
	tx.CmpImm(cpu.RAX, 777)
	tx.Jz(".ok")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".ok")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

func TestSUDInterceptsAndEmulates(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildSUDProgram())

	var sigsys int
	k.OnEvent(func(ev *kernel.Event) {
		if ev.Kind == kernel.EvSudSigsys {
			sigsys++
		}
	})
	p := spawnAndRun(t, k, l, "/bin/sudtest")
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; SUD emulation failed", p.Exit)
	}
	if sigsys != 1 {
		t.Fatalf("SIGSYS count = %d, want 1 (only the getpid)", sigsys)
	}
}

func TestSUDAllowlistedRangeBypasses(t *testing.T) {
	// Syscalls issued from inside the allowlisted range proceed even
	// with the selector blocking.
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/bin/sudallow")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".selector").Raw(0)
	tx := b.Text()
	tx.Label("_start")
	// Arm SUD with the entire text section allowlisted: [0, 1<<47).
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOn)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm(cpu.R10, 1<<47)
	tx.MovImmSym(cpu.R8, ".selector")
	tx.CallSym("prctl")
	tx.MovImmSym(cpu.R11, ".selector")
	tx.MovImm32(cpu.R10, kernel.SelectorBlock)
	tx.StoreB(cpu.R11, 0, cpu.R10)
	// getpid proceeds: its site is inside the allowlist.
	tx.CallSym("getpid")
	tx.CmpImm(cpu.RAX, 1)
	tx.Jz(".ok")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".ok")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/sudallow")
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestPrctlOffDisablesSUD(t *testing.T) {
	// Pitfall P1b at the kernel level: PR_SYS_DISPATCH_OFF always
	// succeeds, silently disabling interposition.
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/bin/sudoff")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".selector").Raw(0)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOn)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm32(cpu.R10, 0)
	tx.MovImmSym(cpu.R8, ".selector")
	tx.CallSym("prctl")
	// Turn it straight back off (the Listing 2 attack).
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOff)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm32(cpu.R10, 0)
	tx.MovImm32(cpu.R8, 0)
	tx.CallSym("prctl")
	// Block the selector anyway: with SUD off it must be ignored.
	tx.MovImmSym(cpu.R11, ".selector")
	tx.MovImm32(cpu.R10, kernel.SelectorBlock)
	tx.StoreB(cpu.R11, 0, cpu.R10)
	tx.CallSym("getpid")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	var sigsys int
	k.OnEvent(func(ev *kernel.Event) {
		if ev.Kind == kernel.EvSudSigsys {
			sigsys++
		}
	})
	p := spawnAndRun(t, k, l, "/bin/sudoff")
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if sigsys != 0 {
		t.Fatalf("SIGSYS delivered %d times after SUD disabled", sigsys)
	}
}

// countingTracer records syscall numbers and can suppress one number.
type countingTracer struct {
	entered  []uint64
	suppress uint64
	fakeRet  uint64
}

func (c *countingTracer) SyscallEnter(k *kernel.Kernel, t *kernel.Thread, nr, site uint64) bool {
	c.entered = append(c.entered, nr)
	if c.suppress != 0 && nr == c.suppress {
		regs := k.TraceeRegs(t)
		regs.R[cpu.RAX] = c.fakeRet
		return true
	}
	return false
}

func (c *countingTracer) SyscallExit(k *kernel.Kernel, t *kernel.Thread, nr, ret uint64) {}

func (c *countingTracer) Execve(k *kernel.Kernel, t *kernel.Thread, path string, argv, env []string) []string {
	return nil
}

func TestTracerSeesStartupSyscalls(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/tiny")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	tr := &countingTracer{}
	p, err := l.Spawn("/bin/tiny", []string{"tiny"}, nil, loader.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	startup := len(tr.entered)
	if startup < 20 {
		t.Fatalf("tracer saw only %d startup syscalls", startup)
	}
	if err := k.RunUntilExit(p, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if len(tr.entered) <= startup {
		t.Fatal("tracer saw no post-startup syscalls")
	}
}

func TestTracerSuppressesSyscall(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/suppr")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("getpid")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	tr := &countingTracer{suppress: kernel.SysGetpid, fakeRet: 42}
	p, err := l.Spawn("/bin/suppr", []string{"suppr"}, nil, loader.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 42 {
		t.Fatalf("exit = %+v; suppression did not substitute result", p.Exit)
	}
}

func buildEchoServer() *image.Image {
	// Accepts one connection and echoes requests until EOF, then exits
	// with the number of requests served.
	b := asm.NewBuilder("/bin/echod")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".buf").Space(256)
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("socket")
	tx.Mov(cpu.RBX, cpu.RAX) // listen fd
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.MovImm32(cpu.RSI, 8080)
	tx.CallSym("bind")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.MovImm32(cpu.RSI, 16)
	tx.CallSym("listen")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.CallSym("accept")
	tx.Mov(cpu.RBP, cpu.RAX) // conn fd
	tx.Xor(cpu.R15, cpu.R15) // request counter
	tx.Label(".loop")
	tx.Mov(cpu.RDI, cpu.RBP)
	tx.MovImmSym(cpu.RSI, ".buf")
	tx.MovImm32(cpu.RDX, 256)
	tx.CallSym("read")
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".done")
	tx.Mov(cpu.RDX, cpu.RAX) // echo length = read length
	tx.Mov(cpu.RDI, cpu.RBP)
	tx.MovImmSym(cpu.RSI, ".buf")
	tx.CallSym("write")
	tx.AddImm(cpu.R15, 1)
	tx.Jmp(".loop")
	tx.Label(".done")
	tx.Mov(cpu.RDI, cpu.R15)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

func TestSocketEchoServer(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildEchoServer())

	p, err := l.Spawn("/bin/echod", []string{"echod"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let the server reach accept (it will block), then inject.
	k.Run(100_000)
	var responses [][]byte
	err = k.InjectConn(8080, []byte("PING"), 3, func(resp []byte) {
		responses = append(responses, append([]byte(nil), resp...))
	})
	if err != nil {
		t.Fatalf("InjectConn: %v", err)
	}
	if err := k.RunUntilExit(p, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 3 {
		t.Fatalf("served %d requests, want 3", p.Exit.Code)
	}
	if len(responses) != 3 || string(responses[0]) != "PING" {
		t.Fatalf("responses = %q", responses)
	}
	accepted, completed := k.ListenerStats(8080)
	if accepted != 1 || completed != 3 {
		t.Fatalf("listener stats = %d accepted, %d completed", accepted, completed)
	}
}

func TestMmapPageZeroWithMapFixed(t *testing.T) {
	// The trampoline precondition: mapping page 0 must work (modelled
	// mmap_min_addr = 0, as in the papers' experimental setup).
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/page0")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 0)
	tx.MovImm32(cpu.RSI, 4096)
	tx.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec)
	tx.MovImm32(cpu.R10, kernel.MapFixed)
	tx.CallSym("mmap")
	// rax must be 0 (the mapping address).
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".ok")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".ok")
	// Store then load through NULL to prove it is mapped.
	tx.Xor(cpu.R11, cpu.R11)
	tx.MovImm32(cpu.R10, 0x90)
	tx.StoreB(cpu.R11, 0, cpu.R10)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/page0")
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestNullDerefKillsWithoutMapping(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/nullref")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Xor(cpu.R11, cpu.R11)
	tx.Load(cpu.RAX, cpu.R11, 0)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/nullref")
	if p.Exit.Signal != kernel.SIGSEGV {
		t.Fatalf("exit = %+v, want SIGSEGV", p.Exit)
	}
}

func TestPkeySyscallsEnforceXOM(t *testing.T) {
	// pkey_alloc + pkey_mprotect + WRPKRU: reads through a denied key
	// fault, execution does not.
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/pku")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".probe").U64(0x1234)
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("pkey_alloc")
	tx.Mov(cpu.RBX, cpu.RAX) // key (1)
	// pkey_mprotect(.probe page, 4096, RW, key)
	tx.MovImmSym(cpu.RDI, ".probe")
	tx.MovImm(cpu.R11, ^int64(mem.PageSize-1))
	tx.And(cpu.RDI, cpu.R11)
	tx.MovImm32(cpu.RSI, 4096)
	tx.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	tx.Mov(cpu.R10, cpu.RBX)
	tx.CallSym("pkey_mprotect")
	// PKRU: deny access to key 1 (AD|WD in bits 2,3).
	tx.MovImm32(cpu.RAX, 0b1100)
	tx.Wrpkru()
	// Read through the denied key: must fault (SIGSEGV).
	tx.MovImmSym(cpu.R11, ".probe")
	tx.Load(cpu.RAX, cpu.R11, 0)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/pku")
	if p.Exit.Signal != kernel.SIGSEGV {
		t.Fatalf("exit = %+v, want SIGSEGV from pkey-denied read", p.Exit)
	}
}

func TestSUDArmedSlowsAllSyscalls(t *testing.T) {
	// Once SUD is armed, even selector-allowed syscalls pay the slow
	// kernel path (the basis of the SUD-no-interposition row, §6.2.1).
	k, _, _ := newWorld(t)
	cost := k.Cost
	if cost.SUDSlowPath == 0 {
		t.Fatal("cost model has no SUD slow path")
	}
}

func TestSigreturnRestoresModifiedContext(t *testing.T) {
	// Covered by TestSUDInterceptsAndEmulates; here verify nesting: a
	// handler triggering another signal unwinds correctly — the SUD
	// program already toggles the selector, so reuse it with a second
	// intercepted call.
	k, l, reg := newWorld(t)
	reg.MustAdd(buildSUDProgram())
	p := spawnAndRun(t, k, l, "/bin/sudtest")
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	_ = k
}

func TestEnvHelpers(t *testing.T) {
	env := []string{"A=1", "LD_PRELOAD=/x.so"}
	if v, ok := kernel.GetEnv(env, "LD_PRELOAD"); !ok || v != "/x.so" {
		t.Fatalf("GetEnv = %q, %v", v, ok)
	}
	env = kernel.SetEnv(env, "LD_PRELOAD", "/y.so")
	if v, _ := kernel.GetEnv(env, "LD_PRELOAD"); v != "/y.so" {
		t.Fatalf("SetEnv did not replace: %q", v)
	}
	env = kernel.SetEnv(env, "NEW", "z")
	if v, _ := kernel.GetEnv(env, "NEW"); v != "z" {
		t.Fatalf("SetEnv did not append: %q", v)
	}
	if _, ok := kernel.GetEnv(env, "MISSING"); ok {
		t.Fatal("GetEnv found missing variable")
	}
}

func TestIsErr(t *testing.T) {
	if e, ok := kernel.IsErr(^uint64(0) - 37); !ok || e != 38 {
		t.Fatalf("IsErr(-38) = %d, %v", e, ok)
	}
	if _, ok := kernel.IsErr(0); ok {
		t.Fatal("IsErr(0) = true")
	}
	if _, ok := kernel.IsErr(12345); ok {
		t.Fatal("IsErr(12345) = true")
	}
}

func TestParseMapsLine(t *testing.T) {
	start, end, perms, name, err := kernel.ParseMapsLine(
		"000055000000-000055003000 r-xp 00000000 00:00 0                          /usr/lib/libc.so.6")
	if err != nil {
		t.Fatal(err)
	}
	if start != 0x55000000 || end != 0x55003000 || perms != "r-xp" || name != "/usr/lib/libc.so.6" {
		t.Fatalf("parsed %#x-%#x %s %s", start, end, perms, name)
	}
	if _, _, _, _, err := kernel.ParseMapsLine("bogus"); err == nil {
		t.Fatal("ParseMapsLine accepted garbage")
	}
}

// TestRunUntilExitStop: a stop check runs before every slice and its
// error ends the run, wrapped, before the next slice; without one, a
// spinning guest still ends in the budget error.
func TestRunUntilExitStop(t *testing.T) {
	spin := func(t *testing.T) (*kernel.Kernel, *kernel.Process) {
		k, l, reg := newWorld(t)
		b := asm.NewBuilder("/bin/spin")
		tx := b.Text()
		tx.Label("_start")
		tx.Label(".l")
		tx.Jmp(".l")
		reg.MustAdd(b.MustBuild())
		p, err := l.Spawn("/bin/spin", []string{"spin"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return k, p
	}
	insts := func(p *kernel.Process) uint64 {
		var n uint64
		for _, th := range p.Threads {
			n += th.Core.Insts
		}
		return n
	}

	k, p := spin(t)
	errStop := errors.New("stop")
	calls := 0
	err := k.RunUntilExit(p, 1<<40, func() error {
		if calls++; calls == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want one wrapping %v", err, errStop)
	}
	twin, tp := spin(t)
	twin.Run(kernel.Slice)
	twin.Run(kernel.Slice)
	if calls != 3 || insts(p) != insts(tp) {
		t.Errorf("stop called %d times over %d instructions, want 3 calls and two slices' %d",
			calls, insts(p), insts(tp))
	}

	k, p = spin(t)
	err = k.RunUntilExit(p, 25_000)
	want := fmt.Sprintf("kernel: budget exhausted after 25000 instructions (pid %d still running)", p.PID)
	if err == nil || err.Error() != want {
		t.Errorf("no stop: err = %v, want %q", err, want)
	}
}
