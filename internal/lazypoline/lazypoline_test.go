package lazypoline_test

import (
	"context"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/lazypoline"
	"k23/internal/libc"
	"k23/internal/machine"
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

func TestLazypolineLazyRewrite(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(4))

	var mechs []interpose.Mechanism
	lz := lazypoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				mechs = append(mechs, c.Mechanism)
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if len(mechs) != 4 {
		t.Fatalf("hook saw %d getpids: %v", len(mechs), mechs)
	}
	// First execution discovers the site via SUD; the rest ride the
	// rewritten fast path.
	if mechs[0] != interpose.MechSUD {
		t.Fatalf("first mechanism = %v, want sud", mechs[0])
	}
	for i, m := range mechs[1:] {
		if m != interpose.MechRewrite {
			t.Fatalf("call %d mechanism = %v, want rewrite", i+2, m)
		}
	}
	st := lz.Stats(p)
	if st.SUD == 0 || st.Rewritten == 0 || st.Sites == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Corruptions != 0 {
		t.Fatalf("clean program produced %d corruptions", st.Corruptions)
	}
}

func TestLazypolineRewriteBytes(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(2))

	lz := lazypoline.New(interpose.Config{})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// Find libc's getpid syscall site and confirm it now reads FF D0.
	for _, li := range w.L.Loaded(p) {
		if li.Image.Path != libc.Path {
			continue
		}
		off := li.Image.Symbols[".getpid_syscall_site"]
		got, err := p.AS.KLoad(li.Base+off, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xFF || got[1] != 0xD0 {
			t.Fatalf("getpid site = % x, want ff d0", got)
		}
		return
	}
	t.Fatal("libc not found")
}

func TestLazypolineP3bHijackCorruptsData(t *testing.T) {
	// P3b: control flow is steered into executable-page data whose
	// bytes spell 0F 05. The CPU executes it as a real SYSCALL, SUD
	// traps it, and lazypoline rewrites the data to FF D0.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/hijack")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	// "Hijacked" jump straight into the data blob.
	tx.MovImm32(cpu.RAX, kernel.SysGetpid) // a plausible rax
	tx.MovImmSym(cpu.R11, "blob")
	tx.JmpReg(cpu.R11)
	tx.Label("blob")
	tx.Raw(0x0F, 0x05) // data that happens to encode SYSCALL
	// Execution falls through here after the "syscall".
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	lz := lazypoline.New(interpose.Config{})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/hijack", []string{"hijack"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	st := lz.Stats(p)
	if st.Corruptions != 1 {
		t.Fatalf("Corruptions = %d, want 1 (the hijacked data rewrite)", st.Corruptions)
	}
	// The data bytes were clobbered.
	for _, li := range w.L.Loaded(p) {
		if li.Image.Path != "/bin/hijack" {
			continue
		}
		got, err := p.AS.KLoad(li.Base+li.Image.Symbols["blob"], 2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 0xFF || got[1] != 0xD0 {
			t.Fatalf("blob = % x, want corrupted ff d0", got)
		}
	}
}

func TestLazypolinePermClobberBreaksJIT(t *testing.T) {
	// P5 (permission restoration flaw): a JIT-style RWX page containing
	// a syscall gets "restored" to RX after the lazy rewrite; the app's
	// next write to its own JIT page crashes.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/jit")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	// mmap an RWX page.
	tx.MovImm32(cpu.RDI, 0)
	tx.MovImm32(cpu.RSI, 4096)
	tx.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec)
	tx.MovImm32(cpu.R10, 0)
	tx.CallSym("mmap")
	tx.Mov(cpu.RBX, cpu.RAX) // jit page
	// Emit "mov rax, 39; syscall; ret" into it, byte by byte.
	// movimm32 rax,39 = BD 00 27 00 00 00 ; syscall = 0F 05 ; ret = C3
	code := []byte{0xBD, 0x00, 39, 0x00, 0x00, 0x00, 0x0F, 0x05, 0xC3}
	for i, by := range code {
		tx.MovImm32(cpu.R11, uint32(by))
		tx.StoreB(cpu.RBX, int32(i), cpu.R11)
	}
	// Call the JIT'd function: first execution trips SUD, lazypoline
	// rewrites and "restores" the page to RX.
	tx.Mov(cpu.RAX, cpu.RBX)
	tx.CallReg(cpu.RAX)
	// Now regenerate code, as JITs do: this write must crash (P5).
	tx.MovImm32(cpu.R11, 0x90)
	tx.StoreB(cpu.RBX, 0, cpu.R11)
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	lz := lazypoline.New(interpose.Config{})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/jit", []string{"jit"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal != kernel.SIGSEGV {
		t.Fatalf("exit = %+v; want SIGSEGV from the clobbered JIT page", p.Exit)
	}
	if lz.Stats(p).PermClobbers == 0 {
		t.Fatal("PermClobbers not counted")
	}
}

func TestLazypolineNullCallSilent(t *testing.T) {
	// P4a: no NULL-execution guard; a NULL call funnels into the
	// trampoline and silently "succeeds".
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/nullcall")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Xor(cpu.RAX, cpu.RAX)
	tx.CallReg(cpu.RAX) // call NULL: no crash under lazypoline
	tx.MovImm32(cpu.RDI, 55)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	lz := lazypoline.New(interpose.Config{})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/nullcall", []string{"nullcall"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal != 0 || p.Exit.Code != 55 {
		t.Fatalf("exit = %+v; want the silent survival of P4a", p.Exit)
	}
}

func TestLazypolineEmulation(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildGetpidProg(3))

	lz := lazypoline.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				return 99, true
			}
			return 0, false
		},
	})
	p, err := machine.Exec(context.Background(), w, lz, "/bin/getpid", []string{"getpid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 99 {
		t.Fatalf("exit = %+v; emulation must work on both SUD and rewrite paths", p.Exit)
	}
}
