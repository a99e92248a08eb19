package kernel_test

import (
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// emitFilter serializes a seccomp filter into a data section.
func emitFilter(d *asm.SectionBuilder, label string, defaultAction uint64,
	rules ...[5]uint64) {
	d.Align(8)
	d.Label(label)
	d.U64(uint64(len(rules)))
	d.U64(defaultAction)
	for _, r := range rules {
		for _, w := range r {
			d.U64(w)
		}
	}
}

// installFilter emits the seccomp(SET_MODE_FILTER) call.
func installFilter(tx *asm.SectionBuilder, label string) {
	tx.MovImm32(cpu.RAX, kernel.SysSeccomp)
	tx.MovImm32(cpu.RDI, kernel.SeccompSetModeFilter)
	tx.MovImm32(cpu.RSI, 0)
	tx.MovImmSym(cpu.RDX, label)
	tx.Syscall()
}

func TestSeccompErrnoAction(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/sferrno")
	b.Needed(libc.Path)
	d := b.Data()
	// Deny getpid with EPERM; allow everything else.
	emitFilter(d, ".filter", kernel.SeccompRetAllow,
		[5]uint64{kernel.SysGetpid, 0, 0, 0, kernel.SeccompRetErrno | kernel.EPERM})
	tx := b.Text()
	tx.Label("_start")
	installFilter(tx, ".filter")
	tx.CallSym("getpid")
	// exit code 0 iff getpid returned -EPERM.
	tx.CmpImm(cpu.RAX, -int32(kernel.EPERM))
	tx.Jz(".ok")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".ok")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/sferrno")
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestSeccompKillAction(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/sfkill")
	b.Needed(libc.Path)
	d := b.Data()
	emitFilter(d, ".filter", kernel.SeccompRetAllow,
		[5]uint64{kernel.SysGetuid, 0, 0, 0, kernel.SeccompRetKillProcess})
	tx := b.Text()
	tx.Label("_start")
	installFilter(tx, ".filter")
	tx.CallSym("getuid")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/sfkill")
	if p.Exit.Signal != kernel.SIGSYS {
		t.Fatalf("exit = %+v, want SIGSYS kill", p.Exit)
	}
}

// TestSeccompTrapWithCookieAllow demonstrates seccomp-TRAP interposition
// with the cookie-argument trick: the handler re-executes syscalls
// carrying a secret value in an unused argument, which the filter
// allowlists. This is the seccomp-based offline-phase alternative the
// paper mentions (§5.1).
func TestSeccompTrapWithCookieAllow(t *testing.T) {
	const cookie = 0x5EC0FFEE

	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/sftrap")
	b.Needed(libc.Path)
	d := b.Data()
	// Allow any syscall whose arg5 (R9) equals the cookie; trap the
	// rest... except the sigreturn needed to leave the handler.
	emitFilter(d, ".filter", kernel.SeccompRetTrap,
		[5]uint64{kernel.SeccompAnyNr, 1, 5, cookie, kernel.SeccompRetAllow},
		[5]uint64{kernel.SysRtSigreturn, 0, 0, 0, kernel.SeccompRetAllow},
		[5]uint64{kernel.SysExitGroup, 0, 0, 0, kernel.SeccompRetAllow})
	tx := b.Text()

	// SIGSYS handler: verify si_code, then re-execute the trapped call
	// with the cookie in R9 and store its result into the saved RAX.
	tx.Label(".handler")
	tx.Load(cpu.RCX, cpu.RSI, kernel.SigInfoCode)
	tx.CmpImm(cpu.RCX, kernel.SiCodeSeccomp)
	tx.Jnz(".badcode")
	tx.Load(cpu.RAX, cpu.RSI, kernel.SigInfoSyscall)
	tx.MovImm(cpu.R9, cookie)
	tx.Push(cpu.RDX)
	tx.Syscall() // allowed: carries the cookie
	tx.Pop(cpu.RDX)
	tx.Store(cpu.RDX, kernel.UctxRegs+8*int32(cpu.RAX), cpu.RAX)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()
	tx.Label(".badcode")
	tx.MovImm32(cpu.RDI, 7)
	tx.CallSym("exit_group")

	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.SIGSYS)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	installFilter(tx, ".filter")
	// This getpid traps, gets re-executed by the handler, and its real
	// result must come back.
	tx.CallSym("getpid")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	var seccompTraps int
	k.OnEvent(func(ev *kernel.Event) {
		if ev.Kind == kernel.EvSeccompSigsys {
			seccompTraps++
		}
	})
	p := spawnAndRun(t, k, l, "/bin/sftrap")
	if p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if p.Exit.Code != p.PID&0xff {
		t.Fatalf("exit = %d, want pid %d (emulated result lost)", p.Exit.Code, p.PID)
	}
	if seccompTraps != 1 {
		t.Fatalf("seccomp traps = %d, want 1 (only the bare getpid)", seccompTraps)
	}
}

// TestSeccompStackedFiltersMostRestrictive: once installed, filters
// cannot be removed, and additional filters only tighten the policy —
// the structural reason seccomp has no P1b-style off switch.
func TestSeccompStackedFiltersMostRestrictive(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/sfstack")
	b.Needed(libc.Path)
	d := b.Data()
	emitFilter(d, ".allowall", kernel.SeccompRetAllow)
	emitFilter(d, ".denypid", kernel.SeccompRetAllow,
		[5]uint64{kernel.SysGetpid, 0, 0, 0, kernel.SeccompRetErrno | kernel.EACCES})
	tx := b.Text()
	tx.Label("_start")
	installFilter(tx, ".denypid")
	// "Disable" attempt: install a permissive filter on top.
	installFilter(tx, ".allowall")
	tx.CallSym("getpid")
	tx.CmpImm(cpu.RAX, -int32(kernel.EACCES))
	tx.Jz(".still")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".still")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/sfstack")
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; a later filter loosened the policy", p.Exit)
	}
}

// TestSUDSiCode: SUD-delivered SIGSYS carries the user-dispatch si_code,
// distinguishable from seccomp's.
func TestSUDSiCode(t *testing.T) {
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/sicode")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".selector").Raw(0)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.SIGSYS)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.CallSym("sigaction")
	// Arm SUD with only libc allowlisted... simpler: allow nothing and
	// rely on the handler's syscalls being intercepted? They must not
	// recurse; allow the binary's own text instead and trigger via libc.
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOn)
	tx.MovImmSym(cpu.RDX, "_start") // allow range start: own text only
	tx.MovImm(cpu.R10, 1<<20)
	tx.MovImmSym(cpu.R8, ".selector")
	tx.CallSym("prctl")
	tx.MovImmSym(cpu.R11, ".selector")
	tx.MovImm32(cpu.RCX, kernel.SelectorBlock)
	tx.StoreB(cpu.R11, 0, cpu.RCX)
	tx.CallSym("getpid") // libc site: outside allowlist -> SIGSYS
	tx.MovImm32(cpu.RDI, 99)
	tx.CallSym("exit_group")

	// Handler AFTER _start so the [_start, +1MB) allowlist covers its
	// own exit_group syscall (no recursive dispatch).
	tx.Label(".handler")
	tx.Load(cpu.RDI, cpu.RSI, kernel.SigInfoCode)
	tx.MovImm32(cpu.RAX, kernel.SysExitGroup)
	tx.Syscall()
	reg.MustAdd(b.MustBuild())

	p := spawnAndRun(t, k, l, "/bin/sicode")
	if p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if p.Exit.Code != kernel.SiCodeUserDispatch {
		t.Fatalf("si_code = %d, want SYS_USER_DISPATCH (%d)", p.Exit.Code, kernel.SiCodeUserDispatch)
	}
}
