package kernel_test

import (
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/zpoline"
)

// These tests pin the restart-rewind machinery for every syscall entry
// path the simulator supports: a raw SYSCALL, a raw SYSENTER, and a
// zpoline-rewritten call site whose trampoline re-issues the SYSCALL.
// blockThread rewinds RIP by the recorded entry length rather than a
// hard-coded width; the encodings all happen to be two bytes, which
// TestEntryEncodingsAreTwoBytes keeps honest.

func TestEntryEncodingsAreTwoBytes(t *testing.T) {
	if cpu.SyscallInstLen != 2 {
		t.Errorf("SyscallInstLen = %d, want 2", cpu.SyscallInstLen)
	}
	if cpu.CallRegInstLen != 2 {
		t.Errorf("CallRegInstLen = %d, want 2", cpu.CallRegInstLen)
	}
	if len(cpu.SyscallBytes) != 2 {
		t.Errorf("SYSCALL encoding is % x, want 2 bytes", cpu.SyscallBytes)
	}
	if len(cpu.SysenterBytes) != 2 {
		t.Errorf("SYSENTER encoding is % x, want 2 bytes", cpu.SysenterBytes)
	}
}

// runRewindProbe drives a buildEINTRProbeEntry guest with an SA_RESTART
// handler: block in accept, check the rewound RIP sits exactly on the
// entry instruction, interrupt with a signal, let the restarted call
// block again at the same site, then complete it with a connection.
func runRewindProbe(t *testing.T, path string, sysenter bool) {
	const port = 9292
	k, l, reg := newWorld(t)
	reg.MustAdd(buildEINTRProbeEntry(path, port, kernel.SARestart, sysenter))
	p, err := l.Spawn(path, []string{path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	mt := p.MainThread()
	if mt.State != kernel.ThreadBlocked {
		t.Fatalf("thread state = %v, want blocked in accept", mt.State)
	}
	site, ok := l.GlobalSymbol(p, "accept_site")
	if !ok {
		t.Fatal("no accept_site symbol")
	}
	if mt.Core.Ctx.RIP != site {
		t.Fatalf("blocked RIP = %#x, want rewound to entry site %#x", mt.Core.Ctx.RIP, site)
	}
	if mt.Core.Ctx.R[cpu.RAX] != kernel.SysAccept {
		t.Fatalf("blocked RAX = %d, want the syscall number %d still armed", mt.Core.Ctx.R[cpu.RAX], kernel.SysAccept)
	}

	k.PostSignal(p, 10)
	if mt.WakePending() {
		t.Fatal("interrupted block leaked its wake condition")
	}
	k.Run(1_000_000)
	// Handler ran, sigreturn re-executed the entry instruction, the
	// restarted accept blocked again — at the same rewound site.
	if mt.State != kernel.ThreadBlocked {
		t.Fatalf("thread state after restart = %v, want blocked again", mt.State)
	}
	if mt.Core.Ctx.RIP != site {
		t.Fatalf("re-blocked RIP = %#x, want %#x", mt.Core.Ctx.RIP, site)
	}

	if err := k.InjectConn(port, []byte("x"), 1, nil); err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if p.State != kernel.ProcZombie {
		t.Fatalf("process did not exit: state %v", p.State)
	}
	if p.Exit.Code != 11 {
		t.Fatalf("exit = %+v, want code 11 (one handler run, accept restarted)", p.Exit)
	}
}

func TestRestartRewindSyscallEntry(t *testing.T) {
	runRewindProbe(t, "/bin/rewind-syscall", false)
}

func TestRestartRewindSysenterEntry(t *testing.T) {
	runRewindProbe(t, "/bin/rewind-sysenter", true)
}

// buildLibcAcceptProbe is the interposed-path twin of
// buildEINTRProbeEntry: accept goes through the libc wrapper, whose
// SYSCALL site zpoline rewrites to `callq *%rax`. Blocking then happens
// at the trampoline's re-issued SYSCALL; a restart rewind must re-execute
// that instruction, and an EINTR abort must land in the wrapper's retry
// loop, which jumps back through the rewritten call site.
func buildLibcAcceptProbe(path string, port, flags uint32) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label("handled").U64(0)
	tx := b.Text()

	tx.Label(".handler")
	tx.MovImmSym(cpu.R11, "handled")
	tx.Load(cpu.RCX, cpu.R11, 0)
	tx.AddImm(cpu.RCX, 1)
	tx.Store(cpu.R11, 0, cpu.RCX)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()

	tx.Label("_start")
	tx.CallSym("socket")
	tx.Mov(cpu.RBX, cpu.RAX)
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.MovImm32(cpu.RSI, port)
	tx.CallSym("bind")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.MovImm32(cpu.RSI, 1)
	tx.CallSym("listen")
	tx.MovImm32(cpu.RDI, 10)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.MovImm32(cpu.RDX, flags)
	tx.CallSym("sigaction")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.CallSym("accept")
	tx.CmpImm(cpu.RAX, 0)
	tx.Jl(".bad")
	// exit code = handled + 10: accept delivered a descriptor.
	tx.MovImmSym(cpu.R11, "handled")
	tx.Load(cpu.RDI, cpu.R11, 0)
	tx.AddImm(cpu.RDI, 10)
	tx.CallSym("exit_group")
	tx.Label(".bad")
	tx.MovImm32(cpu.RDI, 99)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// TestRestartRewindInterposedCallSite runs the accept probe under
// zpoline. With SA_RESTART the kernel rewind re-executes the
// trampoline's SYSCALL; without it the EINTR surfaces into the libc
// wrapper, whose retry loop re-enters through the rewritten
// `callq *%rax` (RAX doubling as the trampoline address). Both paths
// must converge once a connection arrives, with the handler run once.
func TestRestartRewindInterposedCallSite(t *testing.T) {
	const port = 9393
	for _, tc := range []struct {
		name  string
		flags uint32
	}{
		{"sa-restart", kernel.SARestart},
		{"eintr-wrapper-retry", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := interpose.NewWorld()
			w.MustRegister(buildLibcAcceptProbe("/bin/zp-accept", port, tc.flags))
			var accepts int
			z := zpoline.New(interpose.Config{
				Hook: func(c *interpose.Call) (uint64, bool) {
					if c.Num == kernel.SysAccept {
						accepts++
					}
					return 0, false
				},
			})
			p, err := z.Launch(w, "/bin/zp-accept", []string{"zp-accept"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			w.K.Run(50_000_000)
			mt := p.MainThread()
			if mt.State != kernel.ThreadBlocked {
				t.Fatalf("thread state = %v, want blocked in interposed accept", mt.State)
			}
			w.K.PostSignal(p, 10)
			if mt.WakePending() {
				t.Fatal("interrupted block leaked its wake condition")
			}
			w.K.Run(50_000_000)
			if mt.State != kernel.ThreadBlocked {
				t.Fatalf("thread state after signal = %v, want blocked again", mt.State)
			}
			if err := w.K.InjectConn(port, []byte("x"), 1, nil); err != nil {
				t.Fatal(err)
			}
			w.K.Run(50_000_000)
			if p.State != kernel.ProcZombie {
				t.Fatalf("process did not exit: state %v", p.State)
			}
			if p.Exit.Code != 11 {
				t.Fatalf("exit = %+v, want code 11 (one handler run, accept completed)", p.Exit)
			}
			if accepts == 0 {
				t.Fatal("hook never saw the accept: interposition missed")
			}
			// The wrapper-retry variant must have re-entered the hook: the
			// aborted accept plus at least one retry.
			if tc.flags == 0 && accepts < 2 {
				t.Fatalf("hook saw %d accepts, want >= 2 (abort + wrapper retry)", accepts)
			}
		})
	}
}
