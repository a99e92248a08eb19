package kernel_test

import (
	"fmt"
	"slices"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// buildSpin is a program at path that counts RBX down from n, then
// exits with code 0. With fork set it first forks, and parent and child
// both run the loop.
func buildSpin(path string, n uint32, fork bool) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	if fork {
		tx.MovImm32(cpu.RAX, kernel.SysFork)
		tx.Syscall()
	}
	tx.MovImm32(cpu.RBX, n)
	tx.Label(".l")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".l")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// spinWorld spawns one spin program per loop count, in order.
func spinWorld(t *testing.T, counts ...uint32) (*kernel.Kernel, []*kernel.Process) {
	t.Helper()
	k, l, reg := newWorld(t)
	var procs []*kernel.Process
	for i, n := range counts {
		path := fmt.Sprintf("/bin/spin%d", i)
		reg.MustAdd(buildSpin(path, n, false))
		p, err := l.Spawn(path, []string{path}, nil)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	return k, procs
}

// runAll runs k until nothing is runnable.
func runAll(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	for i := 0; k.Run(100_000) != 0; i++ {
		if i == 100 {
			t.Fatal("world still running after 10M instructions")
		}
	}
}

// TestRestoreRequeuesExited: a process that exits after a checkpoint
// leaves the run queue, and restoring the checkpoint puts it back. It
// runs again, and the world ends in the state an uninterrupted run
// reaches.
func TestRestoreRequeuesExited(t *testing.T) {
	k, ps := spinWorld(t, 300, 30_000)
	short := ps[0]
	k.Run(100)
	snap, err := k.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	insts := short.MainThread().Core.Insts
	for i := 0; short.State == kernel.ProcRunning; i++ {
		if i == 1000 {
			t.Fatal("the short process did not exit")
		}
		k.Run(100)
	}
	k.Run(100) // a round after the exit drops it from the queue
	if short.State != kernel.ProcZombie || ps[1].State != kernel.ProcRunning {
		t.Fatalf("states after the short run: %v, %v", short.State, ps[1].State)
	}

	k.Restore(snap)
	if short.State != kernel.ProcRunning || short.MainThread().Core.Insts != insts {
		t.Fatalf("restore: state %v, %d insts, want running at %d", short.State, short.MainThread().Core.Insts, insts)
	}
	runAll(t, k)
	if short.State != kernel.ProcZombie || short.MainThread().Core.Insts <= insts {
		t.Fatalf("restored process not scheduled again: state %v, %d insts (%d at the checkpoint)",
			short.State, short.MainThread().Core.Insts, insts)
	}

	ref, _ := spinWorld(t, 300, 30_000)
	ref.Run(100)
	runAll(t, ref)
	if got, want := k.StateHash(), ref.StateHash(); got != want {
		t.Fatalf("restored run ends at hash %#x, uninterrupted run at %#x", got, want)
	}
}

// TestExitedVvarFrozen: once a process has exited, the scheduler stops
// refreshing its vvar page, while a running process's page keeps
// following the clock.
func TestExitedVvarFrozen(t *testing.T) {
	k, ps := spinWorld(t, 300, 30_000)
	clock := func(p *kernel.Process) [2]uint64 {
		t.Helper()
		vvar, ok := p.AS.RegionByName("[vvar]")
		if !ok {
			t.Fatal("no vvar region")
		}
		var v [2]uint64
		for i := range v {
			var err error
			if v[i], err = p.AS.KLoadU64(vvar.Start + 8*uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	for i := 0; ps[0].State == kernel.ProcRunning; i++ {
		if i == 1000 {
			t.Fatal("the short process did not exit")
		}
		k.Run(100)
	}
	frozen := clock(ps[0])
	k.VClock += 5 * kernel.CyclesPerSecond
	k.Run(1000)
	if got := clock(ps[0]); got != frozen {
		t.Fatalf("exited process's vvar moved from %v to %v", frozen, got)
	}
	if got := clock(ps[1]); got[0] < 5 {
		t.Fatalf("running process's vvar seconds = %d, want >= 5", got[0])
	}
}

// TestForkedChildWaitsForNextRound: a child forked mid-round joins the
// run queue but not the round in progress. The parent forks in round r;
// the process spawned after it still runs in round r, and the child
// first runs in round r+1, after the parent and that process.
func TestForkedChildWaitsForNextRound(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildSpin("/bin/forker", 200, true))
	reg.MustAdd(buildSpin("/bin/other", 200, false))
	parent, err := l.Spawn("/bin/forker", []string{"forker"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := l.Spawn("/bin/other", []string{"other"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Quantum = 5
	var tids []int
	forked := false
	k.AddEventHook(func(ev kernel.Event) {
		if ev.Kind == kernel.EvFork {
			forked = true
		}
	})
	k.SetProfile(1, func(tid int, _ uint64) {
		if forked && (len(tids) == 0 || tids[len(tids)-1] != tid) {
			tids = append(tids, tid)
		}
	})
	k.Run(200)
	if !forked {
		t.Fatal("the parent did not fork")
	}
	child := (parent.PID+2)*100 + 1
	want := []int{other.MainThread().TID, parent.MainThread().TID, other.MainThread().TID, child}
	if len(tids) < len(want) || !slices.Equal(tids[:len(want)], want) {
		t.Fatalf("threads run after the fork: %v, want %v first", tids, want)
	}
}

// TestRunnableWakeOrder: two processes blocked in wait4 become wakeable
// together. Runnable walks the run queue in PID order, so the lower PID
// wakes first and the other wakes in the next round, on every run.
func TestRunnableWakeOrder(t *testing.T) {
	for i := 0; i < 20; i++ {
		k, l, reg := newWorld(t)
		reg.MustAdd(buildSpin("/bin/waiter", 10, false))
		var waiters []*kernel.Thread
		for j := 0; j < 2; j++ {
			p, err := l.Spawn("/bin/waiter", []string{"waiter"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			waiters = append(waiters, p.MainThread())
		}
		var children []*kernel.Thread
		for _, w := range waiters {
			pid := k.DirectSyscall(w, kernel.SysFork, [6]uint64{})
			c, ok := k.Process(int(pid))
			if !ok {
				t.Fatalf("fork returned %d", pid)
			}
			children = append(children, c.MainThread())
			k.DirectSyscall(w, kernel.SysWait4, [6]uint64{^uint64(0), 0})
			if w.State != kernel.ThreadBlocked {
				t.Fatalf("waiter state %v after wait4, want blocked", w.State)
			}
		}
		var woke []int
		k.AddPhaseHook(func(m kernel.PhaseMark) {
			if m.Phase == kernel.PhWake {
				woke = append(woke, m.TID)
			}
		})
		for _, c := range children {
			k.DirectSyscall(c, kernel.SysExitGroup, [6]uint64{})
		}
		if !k.Runnable() {
			t.Fatal("no waiter woken by its exited child")
		}
		k.Run(1000)
		want := []int{waiters[0].TID, waiters[1].TID}
		if !slices.Equal(woke, want) {
			t.Fatalf("run %d: wake marks for %v, want %v", i, woke, want)
		}
	}
}

// BenchmarkSchedulerRound measures one quantum-1 scheduler round (one
// instruction of one live process) with 0 and with 90 exited processes
// left in the world, as the P5 delay scan leaves them. The run queue
// holds only the live process, so the two should cost the same.
func BenchmarkSchedulerRound(b *testing.B) {
	for _, exited := range []int{0, 90} {
		b.Run(fmt.Sprintf("exited=%d", exited), func(b *testing.B) {
			k, l, reg := newWorld(b)
			reg.MustAdd(buildSpin("/bin/short", 1, false))
			reg.MustAdd(buildSpin("/bin/long", 1<<31, false))
			for i := 0; i < exited; i++ {
				p, err := l.Spawn("/bin/short", []string{"short"}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := k.RunUntilExit(p, 1_000_000); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := l.Spawn("/bin/long", []string{"long"}, nil); err != nil {
				b.Fatal(err)
			}
			k.Quantum = 1
			k.Run(10_000)
			b.ResetTimer()
			if n := k.Run(uint64(b.N)); n != uint64(b.N) {
				b.Fatalf("retired %d instructions, want %d", n, b.N)
			}
		})
	}
}
