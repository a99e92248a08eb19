package kernel_test

import (
	"slices"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
)

// wakeRun is what a run from a checkpoint to the process's exit
// observes.
type wakeRun struct {
	wakes  []kernel.PhaseMark // PhWake marks
	exit   kernel.ExitInfo
	result uint64 // the program's "result" slot
	hash   uint64 // the state hash at the end
}

// runTwiceFrom checkpoints k, runs p to its exit (after calling
// resume), restores the checkpoint and runs the same way again. It
// fails the test unless both runs observe the same thing, and returns
// what they saw.
func runTwiceFrom(t *testing.T, k *kernel.Kernel, l *loader.Loader, p *kernel.Process, resume func()) wakeRun {
	t.Helper()
	var wakes []kernel.PhaseMark
	k.AddPhaseHook(func(m kernel.PhaseMark) {
		if m.Phase == kernel.PhWake {
			wakes = append(wakes, m)
		}
	})
	snap, err := k.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(what string) wakeRun {
		wakes = nil
		resume()
		if err := k.RunUntilExit(p, 1_000_000); err != nil {
			t.Fatalf("%s run: %v", what, err)
		}
		addr, ok := l.GlobalSymbol(p, "result")
		if !ok {
			t.Fatal("no result symbol")
		}
		res, err := p.AS.KLoadU64(addr)
		if err != nil {
			t.Fatal(err)
		}
		return wakeRun{wakes: wakes, exit: p.Exit, result: res, hash: k.StateHash()}
	}
	live := run("live")
	k.Restore(snap)
	restored := run("restored")
	if !slices.Equal(live.wakes, restored.wakes) || live.exit != restored.exit ||
		live.result != restored.result || live.hash != restored.hash {
		t.Fatalf("restored run differs from the live run:\n live     %+v\n restored %+v", live, restored)
	}
	return live
}

// buildBlockedServer is a server whose main thread blocks on fd
// "blockfd" (accept on its listener, or with connRead a second read on
// an accepted connection, waiting for the client's next request) and
// stores the call's result. A thread started at "closer" closes that
// fd; one started at "responder" spins, then answers the first request
// on it. Either thread then exits.
func buildBlockedServer(path string, port uint32, connRead bool) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label("blockfd").U64(0)
	d.Label("result").U64(0)
	d.Label("buf").Space(64)
	tx := b.Text()
	tx.Label("closer")
	tx.MovImmSym(cpu.R11, "blockfd")
	tx.Load(cpu.RDI, cpu.R11, 0)
	tx.MovImm32(cpu.RAX, kernel.SysClose)
	tx.Syscall()
	tx.Jmp(".exit")
	tx.Label("responder")
	tx.MovImm32(cpu.RCX, 2_000)
	tx.Label(".spin")
	tx.AddImm(cpu.RCX, -1)
	tx.Jnz(".spin")
	tx.MovImmSym(cpu.R11, "blockfd")
	tx.Load(cpu.RDI, cpu.R11, 0)
	tx.MovImmSym(cpu.RSI, "buf")
	tx.MovImm32(cpu.RDX, 2)
	tx.MovImm32(cpu.RAX, kernel.SysWrite)
	tx.Syscall()
	tx.Label(".exit")
	tx.MovImm32(cpu.RDI, 0)
	tx.MovImm32(cpu.RAX, kernel.SysExit)
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
	if connRead {
		// Accept the connection and read its first request; the next
		// read waits until that request is answered.
		tx.Mov(cpu.RDI, cpu.RBX)
		tx.CallSym("accept")
		tx.Mov(cpu.RBX, cpu.RAX)
		tx.Mov(cpu.RDI, cpu.RBX)
		tx.MovImmSym(cpu.RSI, "buf")
		tx.MovImm32(cpu.RDX, 64)
		tx.CallSym("read")
	}
	tx.MovImmSym(cpu.R11, "blockfd")
	tx.Store(cpu.R11, 0, cpu.RBX)
	tx.Mov(cpu.RDI, cpu.RBX)
	if connRead {
		tx.MovImmSym(cpu.RSI, "buf")
		tx.MovImm32(cpu.RDX, 64)
		tx.MovImm32(cpu.RAX, kernel.SysRead)
	} else {
		tx.MovImm32(cpu.RAX, kernel.SysAccept)
	}
	tx.Syscall()
	tx.MovImmSym(cpu.R11, "result")
	tx.Store(cpu.R11, 0, cpu.RAX)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// blockedPort is the port buildBlockedServer listens on.
const blockedPort = 9393

// blockedServer spawns buildBlockedServer and runs it until its main
// thread blocks on blockfd (with connRead, after injecting a client
// that sends two requests), then starts a second thread at entry.
func blockedServer(t *testing.T, connRead bool, entry string) (*kernel.Kernel, *loader.Loader, *kernel.Process, *kernel.Thread) {
	t.Helper()
	const port = blockedPort
	k, l, reg := newWorld(t)
	reg.MustAdd(buildBlockedServer("/bin/blocked", port, connRead))
	p, err := l.Spawn("/bin/blocked", []string{"blocked"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(1_000_000)
	if connRead {
		if err := k.InjectConn(port, []byte("GET"), 2, nil); err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
	}
	if mt := p.MainThread(); mt.State != kernel.ThreadBlocked {
		t.Fatalf("main thread %v, want blocked", mt.State)
	}
	pc, ok := l.GlobalSymbol(p, entry)
	if !ok {
		t.Fatalf("no %s symbol", entry)
	}
	return k, l, p, k.NewThread(p, cpu.Context{RIP: pc})
}

// TestCloseWhileBlockedRestores: a thread blocked in accept or in a
// connection read on fd n, whose fd a second thread closes. The wake
// condition names fd n, which no longer resolves, so the thread wakes
// and its restarted call fails with EBADF, both live and after
// restoring a checkpoint taken after the close.
func TestCloseWhileBlockedRestores(t *testing.T) {
	for _, row := range []struct {
		name     string // also the wake mark's detail
		connRead bool
	}{
		{"accept", false},
		{"conn-read", true},
	} {
		t.Run(row.name, func(t *testing.T) {
			k, l, p, ct := blockedServer(t, row.connRead, "closer")
			mt := p.MainThread()
			// The closer's slice ends at its close syscall: four
			// instructions, after which the main thread is still
			// blocked.
			k.Run(1)
			if ct.Core.Insts != 4 || mt.State != kernel.ThreadBlocked {
				t.Fatalf("after the close: closer retired %d, main %v; want 4, blocked", ct.Core.Insts, mt.State)
			}
			got := runTwiceFrom(t, k, l, p, func() {
				// A connection arriving after the close must not
				// matter: the fd is gone either way.
				if err := k.InjectConn(blockedPort, []byte("GET"), 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			if e, bad := kernel.IsErr(got.result); !bad || e != kernel.EBADF {
				t.Errorf("restarted %s returned %#x, want -EBADF", row.name, got.result)
			}
			wantOneWake(t, got, row.name, mt)
		})
	}
}

// buildForkWait forks; the child spins, then exits with code 7, and the
// parent waits for it with a raw wait4 and stores the reaped PID.
func buildForkWait(path string) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label("result").U64(0)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, kernel.SysFork)
	tx.Syscall()
	tx.CmpImm(cpu.RAX, 0)
	tx.Jnz(".parent")
	tx.MovImm32(cpu.RBX, 5_000)
	tx.Label(".spin")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".spin")
	tx.MovImm32(cpu.RDI, 7)
	tx.CallSym("exit_group")
	tx.Label(".parent")
	tx.MovImm(cpu.RDI, -1)
	tx.MovImm32(cpu.RSI, 0)
	tx.MovImm32(cpu.RAX, kernel.SysWait4)
	tx.Syscall()
	tx.MovImmSym(cpu.R11, "result")
	tx.Store(cpu.R11, 0, cpu.RAX)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// TestRestoreBlockedThread checkpoints a thread blocked in wait4 (its
// child still running) and one blocked in a connection read (a second
// thread about to answer the request it waits behind). The run from
// the checkpoint, in which the thread wakes and completes its call, and
// the run after restoring the checkpoint emit the same wake mark and
// end in the same state. The rr battery already restores servers
// blocked in accept.
func TestRestoreBlockedThread(t *testing.T) {
	t.Run("wait4", func(t *testing.T) {
		k, l, reg := newWorld(t)
		reg.MustAdd(buildForkWait("/bin/forkwait"))
		p, err := l.Spawn("/bin/forkwait", []string{"forkwait"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; p.MainThread().State != kernel.ThreadBlocked; i++ {
			if i == 100 {
				t.Fatal("parent never blocked in wait4")
			}
			k.Run(10)
		}
		child, ok := k.Process(p.PID + 1)
		if !ok || child.State != kernel.ProcRunning {
			t.Fatal("child not running at the checkpoint")
		}
		got := runTwiceFrom(t, k, l, p, func() {})
		wantOneWake(t, got, "wait4", p.MainThread())
		if got.result != uint64(child.PID) || child.Exit.Code != 7 || child.State != kernel.ProcReaped {
			t.Errorf("wait4 returned %d (child %d, exit %v, state %v)", got.result, child.PID, child.Exit, child.State)
		}
	})
	t.Run("conn-read", func(t *testing.T) {
		k, l, p, rt := blockedServer(t, true, "responder")
		k.Run(100)
		if rt.State != kernel.ThreadRunnable || p.MainThread().State != kernel.ThreadBlocked {
			t.Fatalf("responder %v, main %v; want runnable, blocked", rt.State, p.MainThread().State)
		}
		got := runTwiceFrom(t, k, l, p, func() {})
		wantOneWake(t, got, "conn-read", p.MainThread())
		if got.result != 3 {
			t.Errorf("second read returned %#x, want the 3-byte request", got.result)
		}
	})
}

// wantOneWake checks that the run saw exactly one wake mark, of thread
// th and with detail.
func wantOneWake(t *testing.T, got wakeRun, detail string, th *kernel.Thread) {
	t.Helper()
	if len(got.wakes) != 1 || got.wakes[0].Detail != detail || got.wakes[0].TID != th.TID {
		t.Errorf("wake marks %+v, want one %s wake of tid %d", got.wakes, detail, th.TID)
	}
}
