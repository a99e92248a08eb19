package ptracer_test

import (
	"context"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
	"k23/internal/ptracer"
)

func buildProg() *image.Image {
	b := asm.NewBuilder("/bin/prog")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".tv").Space(16)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, ".tv")
	tx.CallSym("gettimeofday")
	tx.CallSym("getpid")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

func TestPtracerExhaustive(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildProg())

	var nrs []uint64
	pt := ptracer.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			nrs = append(nrs, c.Num)
			if c.Mechanism != interpose.MechPtrace {
				t.Errorf("mechanism = %v", c.Mechanism)
			}
			return 0, false
		},
	})
	p, err := pt.Launch(w, "/bin/prog", []string{"prog"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Startup syscalls were already traced at spawn time.
	startupSeen := len(nrs)
	if startupSeen < 20 {
		t.Fatalf("ptracer saw only %d startup syscalls; must be exhaustive from the first instruction", startupSeen)
	}
	if err := w.K.RunUntilExit(p, machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
	// With the vdso disabled, gettimeofday must appear as a real trap.
	foundTime, foundPid := false, false
	for _, nr := range nrs[startupSeen:] {
		if nr == kernel.SysGettimeofday {
			foundTime = true
		}
		if nr == kernel.SysGetpid {
			foundPid = true
		}
	}
	if !foundTime {
		t.Fatal("vdso-disabled gettimeofday not traced (P2b fix broken)")
	}
	if !foundPid {
		t.Fatal("getpid not traced")
	}
	if pt.Stats(p).Ptraced == 0 {
		t.Fatal("stats empty")
	}
}

func TestPtracerEmulates(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildProg())

	pt := ptracer.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				return 88, true
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, pt, "/bin/prog", []string{"prog"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 88 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestPtracerKeepVDSOMissesTimeCalls(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildProg())

	var timeCalls int
	pt := ptracer.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGettimeofday {
				timeCalls++
			}
			return 0, false
		},
	})
	pt.KeepVDSO = true
	_, err := machine.Exec(context.Background(), w, pt, "/bin/prog", []string{"prog"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if timeCalls != 0 {
		t.Fatalf("vdso gettimeofday was traced %d times with vdso kept", timeCalls)
	}
}

func TestPtracerIsSlow(t *testing.T) {
	// The cost model must charge stop round trips: a traced process
	// accumulates far more cycles than a native one.
	runCycles := func(traced bool) uint64 {
		w := interpose.NewWorld()
		w.MustRegister(buildProg())
		var l interpose.Launcher = interpose.Native{}
		if traced {
			l = ptracer.New(interpose.Config{})
		}
		p, err := machine.Exec(context.Background(), w, l, "/bin/prog", []string{"prog"}, 0, machine.DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, th := range p.Threads {
			total += th.Cycles()
		}
		return total
	}
	native := runCycles(false)
	traced := runCycles(true)
	if traced < native*3 {
		t.Fatalf("traced %d vs native %d cycles; ptrace overhead not modelled", traced, native)
	}
}
