package zpoline_test

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
	"k23/internal/zpoline"
)

// buildGetpidProg calls getpid N times and exits with the last result.
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

func TestZpolineInterposesViaRewrite(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(5))

	var seen []uint64
	z := zpoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			seen = append(seen, c.Num)
			if c.Mechanism != interpose.MechRewrite {
				t.Errorf("mechanism = %v, want rewrite", c.Mechanism)
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, z, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v, want pid %d (getpid result must pass through)", p.Exit, p.PID)
	}
	getpids := 0
	for _, nr := range seen {
		if nr == kernel.SysGetpid {
			getpids++
		}
	}
	if getpids != 5 {
		t.Fatalf("hook saw %d getpid calls, want 5 (seen: %v)", getpids, seen)
	}
	st := z.Stats(p)
	if st.Rewritten < 5 {
		t.Fatalf("stats.Rewritten = %d", st.Rewritten)
	}
	if st.Sites == 0 {
		t.Fatal("no sites rewritten")
	}
	if st.Corruptions != 0 {
		t.Fatalf("clean binary caused %d corrupting rewrites", st.Corruptions)
	}
}

func TestZpolineHookEmulates(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(1))

	z := zpoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				return 123, true // emulate
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, z, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 123 {
		t.Fatalf("exit = %+v, want emulated 123", p.Exit)
	}
}

func TestZpolineMissesStartupSyscalls(t *testing.T) {
	// P2b: nothing before library load is interposed.
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(1))

	var openats int
	z := zpoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysOpenat {
				openats++
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, z, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// The loader issued many openat calls; zpoline saw none of them.
	if w.L.StartupSyscalls(p) < 20 {
		t.Fatalf("startup syscalls = %d; scenario broken", w.L.StartupSyscalls(p))
	}
	if openats != 0 {
		t.Fatalf("zpoline saw %d startup openat calls; should be blind to them (P2b)", openats)
	}
}

func TestZpolineMissesDlopenedCode(t *testing.T) {
	// P2a: a plugin loaded at runtime contains a syscall site zpoline
	// never rewrote — its calls bypass interposition.
	w := interpose.NewWorld()

	plug := asm.NewBuilder("/usr/lib/late.so")
	plug.Needed(libc.Path)
	pt := plug.Text()
	pt.Label("late_getpid")
	pt.MovImm32(cpu.RAX, kernel.SysGetpid)
	pt.Syscall()
	pt.Ret()
	w.MustRegister(plug.MustBuild())

	b := asm.NewBuilder("/bin/dlhost")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".path").CString("/usr/lib/late.so")
	d.Label(".sym").CString("late_getpid")
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, ".path")
	tx.CallSym("dlopen")
	// Resolve and call the plugin's getpid via dlsym.
	tx.MovImmSym(cpu.RDI, ".sym")
	tx.CallSym("dlsym")
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".fail")
	tx.CallReg(cpu.RAX)
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	tx.Label(".fail")
	tx.MovImm32(cpu.RDI, 77)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	var hookedGetpids int
	z := zpoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				hookedGetpids++
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, z, "/bin/dlhost", []string{"dlhost"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v (late_getpid must still work natively)", p.Exit)
	}
	if hookedGetpids != 0 {
		t.Fatalf("zpoline interposed %d dlopen'd getpid calls; pitfall P2a says it cannot", hookedGetpids)
	}
}

func TestZpolineCorruptsEmbeddedData(t *testing.T) {
	// P3a: embedded data desynchronizes the sweep; zpoline rewrites
	// inside it.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/databed")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Jmp(".after") // jump over the embedded data
	tx.Label("table")
	tx.Raw(0xAB, 0x0F, 0x05, 0xAB) // jump-table bytes resembling SYSCALL
	tx.Label(".after")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	z := zpoline.New(interpose.Config{})
	p, err := machine.Exec(context.Background(), w, z, "/bin/databed", []string{"databed"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if z.Stats(p).Corruptions == 0 {
		t.Fatal("zpoline did not corrupt the embedded data (P3a scenario broken)")
	}
	// The bytes at the table were clobbered with FF D0.
	li := findImage(w, p, "/bin/databed")
	tableOff := li.Image.Symbols["table"]
	got, err := p.AS.KLoad(li.Base+tableOff+1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF || got[1] != 0xD0 {
		t.Fatalf("embedded data not rewritten: % x", got)
	}
}

func findImage(w *interpose.World, p *kernel.Process, path string) (li liRet) {
	for _, l := range w.L.Loaded(p) {
		if l.Image.Path == path {
			return liRet{Image: l.Image, Base: l.Base}
		}
	}
	return liRet{}
}

type liRet struct {
	Image *image.Image
	Base  uint64
}

func TestZpolineDefaultSilentOnNullCall(t *testing.T) {
	// P4a flavour: with the trampoline mapped and no check, calling a
	// NULL function pointer does NOT crash — it silently funnels into
	// the interposer as a bogus "syscall" whose number is whatever RAX
	// held.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/nullcall")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, 39) // rax: pretend leftover syscall number
	tx.Xor(cpu.R9, cpu.R9)
	tx.Mov(cpu.RAX, cpu.R9) // rax = 0: the NULL "function pointer"
	tx.CallReg(cpu.RAX)     // call NULL
	// If we return (!) exit 55 to mark silent survival.
	tx.MovImm32(cpu.RDI, 55)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	z := zpoline.New(interpose.Config{}) // default: no NULL-exec check
	p, err := machine.Exec(context.Background(), w, z, "/bin/nullcall", []string{"nullcall"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal != 0 || p.Exit.Code != 55 {
		t.Fatalf("exit = %+v; want silent survival (the debugging nightmare)", p.Exit)
	}
}

func TestZpolineUltraAbortsNullCall(t *testing.T) {
	// zpoline-ultra's bitmap check turns the same NULL call into a
	// controlled abort (P4a addressed).
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/nullcall")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Xor(cpu.RAX, cpu.RAX)
	tx.CallReg(cpu.RAX)
	tx.MovImm32(cpu.RDI, 55)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	z := zpoline.New(interpose.Config{NullExecCheck: true})
	// The abort surfaces as a process kill, not as a run error.
	p, err := machine.Exec(context.Background(), w, z, "/bin/nullcall", []string{"nullcall"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal == 0 {
		t.Fatalf("exit = %+v; ultra variant must abort the unknown entry", p.Exit)
	}
	if z.Stats(p).NullExecAborts != 1 {
		t.Fatalf("NullExecAborts = %d", z.Stats(p).NullExecAborts)
	}
}

func TestZpolineUltraBitmapMemoryOverhead(t *testing.T) {
	// P4b: the bitmap reserves tens of GiB of virtual space per process.
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(1))
	z := zpoline.New(interpose.Config{NullExecCheck: true})
	p, err := z.Launch(w, "/bin/getpid", []string{"getpid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := z.Stats(p)
	if st.MemReservedBytes < 1<<40 {
		t.Fatalf("bitmap reservation = %d bytes; want the P4b-scale footprint", st.MemReservedBytes)
	}
	if st.MemResidentBytes == 0 || st.MemResidentBytes > 1<<20 {
		t.Fatalf("resident = %d bytes", st.MemResidentBytes)
	}
}

func TestBitmap(t *testing.T) {
	bm := zpoline.NewBitmap()
	addrs := []uint64{0, 1, 63, 64, 0x55000123, 1 << 46}
	for _, a := range addrs {
		bm.Set(a)
	}
	for _, a := range addrs {
		if !bm.Get(a) {
			t.Fatalf("Get(%#x) = false", a)
		}
	}
	if bm.Get(2) || bm.Get(0x55000124) {
		t.Fatal("bitmap false positive")
	}
	if bm.ReservedBytes() != 1<<44 {
		t.Fatalf("ReservedBytes = %d", bm.ReservedBytes())
	}
}
