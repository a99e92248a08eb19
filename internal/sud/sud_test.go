package sud_test

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
	"k23/internal/sud"
)

func buildGetpidProg(n int) *image.Image {
	b := asm.NewBuilder("/bin/getpid")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RBX, uint32(n))
	tx.Label(".loop")
	tx.CallSym("getpid")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".loop")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

func TestSUDInterposesEverySyscall(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(3))

	var getpids, total int
	s := sud.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			total++
			if c.Mechanism != interpose.MechSUD {
				t.Errorf("mechanism = %v", c.Mechanism)
			}
			if c.Num == kernel.SysGetpid {
				getpids++
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, s, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v, want pid passthrough", p.Exit)
	}
	if getpids != 3 {
		t.Fatalf("hook saw %d getpids, want 3", getpids)
	}
	// The exit_group must be interposed too.
	if total < 4 {
		t.Fatalf("hook saw only %d syscalls", total)
	}
	if s.Stats(p).SUD < 4 {
		t.Fatalf("stats.SUD = %d", s.Stats(p).SUD)
	}
}

func TestSUDEmulates(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(1))

	s := sud.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				return 321, true
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, s, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 65 { // exit codes are 8-bit: 321 & 0xff = 65
		t.Fatalf("exit = %+v, want 321 mod 256", p.Exit)
	}
}

func TestSUDArgumentRewrite(t *testing.T) {
	// Deep argument inspection and modification: rewrite write(1, ...)
	// payloads by redirecting the buffer pointer.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/writer")
	b.Needed(libc.Path)
	ro := b.Rodata()
	ro.Label(".msg").CString("AAAA")
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 1)
	tx.MovImmSym(cpu.RSI, ".msg")
	tx.MovImm32(cpu.RDX, 4)
	tx.CallSym("write")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	s := sud.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysWrite && c.Args[0] == 1 {
				// Read, censor, write back through tracee memory.
				buf, err := c.Thread.Proc.AS.KLoad(c.Args[1], int(c.Args[2]))
				if err != nil {
					t.Errorf("arg read: %v", err)
					return 0, false
				}
				for i := range buf {
					if buf[i] == 'A' {
						buf[i] = 'B'
					}
				}
				if err := c.Thread.Proc.AS.KStore(c.Args[1], buf); err != nil {
					t.Errorf("arg write: %v", err)
				}
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, s, "/bin/writer", []string{"writer"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(p.Stdout); got != "BBBB" {
		t.Fatalf("stdout = %q, want censored BBBB", got)
	}
}

func TestSUDPassiveInterposesNothing(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(2))

	s := sud.NewPassive()
	p, err := machine.Exec(context.Background(), w, s, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if s.Stats(p).SUD != 0 {
		t.Fatalf("passive SUD interposed %d calls", s.Stats(p).SUD)
	}
}

func TestSUDPrctlOffBypasses(t *testing.T) {
	// Pitfall P1b against the plain SUD interposer: the app disables
	// dispatch via prctl and every later syscall escapes.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/p1b")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	// prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF, 0, 0, 0)
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOff)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm32(cpu.R10, 0)
	tx.MovImm32(cpu.R8, 0)
	tx.CallSym("prctl")
	tx.CallSym("getpid")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	var afterPrctl []uint64
	sawPrctl := false
	s := sud.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysPrctl {
				sawPrctl = true
			} else if sawPrctl {
				afterPrctl = append(afterPrctl, c.Num)
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, s, "/bin/p1b", []string{"p1b"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !sawPrctl {
		t.Fatal("the disabling prctl itself was not interposed")
	}
	if len(afterPrctl) != 0 {
		t.Fatalf("interposed %v after SUD was disabled; P1b scenario broken", afterPrctl)
	}
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}
