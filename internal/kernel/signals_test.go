package kernel_test

import (
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// TestSigsegvHandlerAndContextRewrite: a SIGSEGV handler can repair the
// fault by modifying the saved context — the primitive interposers use
// to emulate calls "from outside the handler" (§2.1).
func TestSigsegvHandlerAndContextRewrite(t *testing.T) {
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/bin/fixup")
	b.Needed(libc.Path)
	tx := b.Text()

	// Handler: redirect the saved RIP to .recover.
	tx.Label(".handler")
	tx.MovImmSym(cpu.R11, ".recover")
	tx.Store(cpu.RDX, kernel.UctxRIP, cpu.R11)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()

	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.SIGSEGV)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	// Fault: load from unmapped memory.
	tx.MovImm(cpu.R11, 0xdead0000)
	tx.Load(cpu.RAX, cpu.R11, 0)
	// Unreachable.
	tx.MovImm32(cpu.RDI, 99)
	tx.CallSym("exit_group")
	tx.Label(".recover")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/fixup")
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v; signal-context redirect failed", p.Exit)
	}
}

// TestSigreturnWithoutFrameKills: calling rt_sigreturn outside a signal
// context is fatal.
func TestSigreturnWithoutFrameKills(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/badret")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/badret")
	if p.Exit.Signal != kernel.SIGSEGV {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

// TestSiginfoCarriesFaultAddress: SIGSEGV handlers see si_addr.
func TestSiginfoCarriesFaultAddress(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/siginfo")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label(".handler")
	// exit code = low byte of si_addr.
	tx.Load(cpu.RDI, cpu.RSI, kernel.SigInfoFaultAddr)
	tx.CallSym("exit_group")
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.SIGSEGV)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	tx.MovImm(cpu.R11, 0xdead0042)
	tx.Load(cpu.RAX, cpu.R11, 0)
	tx.Label(".nope")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/siginfo")
	if p.Exit.Code != 0x42 {
		t.Fatalf("exit = %+v, want si_addr low byte 0x42", p.Exit)
	}
}

// TestNestedSignals: a handler that faults re-enters signal delivery and
// unwinds correctly through stacked frames.
func TestNestedSignals(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/nested")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".depth").U64(0)
	tx := b.Text()

	tx.Label(".handler")
	// depth++
	tx.MovImmSym(cpu.R11, ".depth")
	tx.Load(cpu.RCX, cpu.R11, 0)
	tx.AddImm(cpu.RCX, 1)
	tx.Store(cpu.R11, 0, cpu.RCX)
	// On first entry, fault again (nested delivery).
	tx.CmpImm(cpu.RCX, 1)
	tx.Jnz(".unwind")
	tx.MovImm(cpu.R11, 0xdead1000)
	tx.Load(cpu.RAX, cpu.R11, 0) // nested SIGSEGV
	tx.Label(".unwind")
	// Redirect saved RIP to .done and return.
	tx.MovImmSym(cpu.R11, ".done")
	tx.Store(cpu.RDX, kernel.UctxRIP, cpu.R11)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()

	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.SIGSEGV)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	tx.MovImm(cpu.R11, 0xdead2000)
	tx.Load(cpu.RAX, cpu.R11, 0)
	tx.Label(".done")
	tx.MovImmSym(cpu.R11, ".depth")
	tx.Load(cpu.RDI, cpu.R11, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/nested")
	// Handler ran twice (outer fault + nested fault). The nested
	// sigreturn lands at .done inside the first handler's context chain;
	// both frames must unwind without corruption.
	if p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if p.Exit.Code != 2 {
		t.Fatalf("handler depth = %d, want 2", p.Exit.Code)
	}
}

// TestCallGuestWouldBlockRestoresContext: a blocking guest call must
// restore the thread exactly.
func TestCallGuestWouldBlockRestoresContext(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/idle")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("socket")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.MovImm32(cpu.RSI, 7777)
	tx.CallSym("bind")
	// Spin so the process stays alive while the host probes it with
	// guest calls.
	tx.MovImm(cpu.RBX, 1<<40)
	tx.Label(".spin")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".spin")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p, err := l.Spawn("/bin/idle", []string{"idle"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Let it create and bind the socket, then listen via guest calls.
	k.Run(200_000)
	mt := p.MainThread()
	saved := mt.Core.Ctx

	// Issue listen then a blocking accept through the generic libc
	// syscall entry (it is a (nr, args...) gate like ld.so's).
	gate, ok := l.GlobalSymbol(p, "syscall")
	if !ok {
		t.Fatal("no syscall symbol")
	}
	if ret, err := k.CallGuest(mt, gate, [6]uint64{kernel.SysListen, 3, 1}); err != nil || ret != 0 {
		t.Fatalf("listen = %d, %v", ret, err)
	}
	_, err = k.CallGuest(mt, gate, [6]uint64{kernel.SysAccept, 3})
	if err != kernel.ErrGuestWouldBlock {
		t.Fatalf("accept err = %v, want ErrGuestWouldBlock", err)
	}
	if mt.Core.Ctx != saved {
		t.Fatalf("context not restored:\n got %+v\nwant %+v", mt.Core.Ctx, saved)
	}
	if mt.State != kernel.ThreadRunnable {
		t.Fatalf("state = %v", mt.State)
	}
}

// TestDirectSyscallBypassesDispatch: DirectSyscall must not trigger SUD
// or tracers.
func TestDirectSyscallBypassesDispatch(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildSUDProgram())
	p, err := l.Spawn("/bin/sudtest", []string{"sudtest"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := p.MainThread()
	var sigsys int
	k.EventHook = func(ev kernel.Event) {
		if ev.Kind == kernel.EvSudSigsys {
			sigsys++
		}
	}
	ret := k.DirectSyscall(mt, kernel.SysGetpid, [6]uint64{})
	if int(ret) != p.PID {
		t.Fatalf("getpid = %d", ret)
	}
	if sigsys != 0 {
		t.Fatal("DirectSyscall triggered SUD")
	}
}

// TestVvarTracksClock: the vvar page advances with the virtual clock.
func TestVvarTracksClock(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildSpin("/bin/spin", 100000, false))
	p, err := l.Spawn("/bin/spin", []string{"spin"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vvar, ok := p.AS.RegionByName("[vvar]")
	if !ok {
		t.Fatal("no vvar region")
	}
	k.VClock += 5 * kernel.CyclesPerSecond
	k.Run(1000)
	sec, err := p.AS.KLoadU64(vvar.Start)
	if err != nil {
		t.Fatal(err)
	}
	if sec < 5 {
		t.Fatalf("vvar seconds = %d, want >= 5", sec)
	}
}
