package loader_test

import (
	"fmt"
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
)

// buildHello returns a binary that writes "hello\n" to stdout and exits 7.
func buildHello() *image.Image {
	b := asm.NewBuilder("/usr/bin/hello")
	b.Needed(libc.Path)
	ro := b.Rodata()
	ro.Label(".msg").CString("hello\n")
	t := b.Text()
	t.Label("_start")
	t.MovImm32(cpu.RDI, 1)
	t.MovImmSym(cpu.RSI, ".msg")
	t.MovImm32(cpu.RDX, 6)
	t.CallSym("write")
	t.MovImm32(cpu.RDI, 7)
	t.CallSym("exit_group")
	return b.MustBuild()
}

func newWorld(t *testing.T) (*kernel.Kernel, *loader.Loader, *image.Registry) {
	t.Helper()
	k := kernel.New()
	reg := image.NewRegistry()
	reg.MustAdd(libc.Image())
	l := loader.New(k, reg)
	return k, l, reg
}

func TestSpawnHello(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	p, err := l.Spawn("/usr/bin/hello", []string{"hello"}, nil)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	if err := k.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatalf("RunUntilExit: %v (stderr=%q)", err, p.Stderr)
	}
	if got := string(p.Stdout); got != "hello\n" {
		t.Fatalf("stdout = %q", got)
	}
	if p.Exit.Code != 7 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestStartupSyscallsPrecedeInterposition(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	p, err := l.Spawn("/usr/bin/hello", []string{"hello"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := l.StartupSyscalls(p)
	if n < 20 {
		t.Fatalf("loader issued only %d startup syscalls; want a realistic ld.so trail", n)
	}
	_ = k
}

func TestProcMapsListsImages(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	p, err := l.Spawn("/usr/bin/hello", []string{"hello"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := k.FS.ReadFile(fmt.Sprintf("/proc/%d/maps", p.PID))
	if err != nil {
		t.Fatalf("reading maps: %v", err)
	}
	for _, want := range []string{libc.Path, "/usr/bin/hello", loader.LdsoPath, "[stack]", "[vdso]"} {
		if !strings.Contains(string(maps), want) {
			t.Errorf("maps missing %q:\n%s", want, maps)
		}
	}
}

func TestVdsoGettimeofdayIssuesNoSyscall(t *testing.T) {
	// gettimeofday through the vdso must not trap: it is invisible to
	// syscall interposition (pitfall P2b).
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/usr/bin/timer")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".tv").Space(16)
	t2 := b.Text()
	t2.Label("_start")
	t2.MovImmSym(cpu.RDI, ".tv")
	t2.CallSym("gettimeofday")
	t2.MovImm32(cpu.RDI, 0)
	t2.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	var timeCalls int
	k.OnEvent(func(ev *kernel.Event) {
		if ev.Kind == kernel.EvEnter && ev.Num == kernel.SysGettimeofday {
			timeCalls++
		}
	})
	p, err := l.Spawn("/usr/bin/timer", []string{"timer"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if timeCalls != 0 {
		t.Fatalf("vdso gettimeofday trapped %d times; want 0", timeCalls)
	}
}

func TestDisableVDSOForcesSyscall(t *testing.T) {
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/usr/bin/timer")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".tv").Space(16)
	t2 := b.Text()
	t2.Label("_start")
	t2.MovImmSym(cpu.RDI, ".tv")
	t2.CallSym("gettimeofday")
	t2.MovImm32(cpu.RDI, 0)
	t2.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	var timeCalls int
	k.OnEvent(func(ev *kernel.Event) {
		if ev.Kind == kernel.EvEnter && ev.Num == kernel.SysGettimeofday {
			timeCalls++
		}
	})
	p, err := l.Spawn("/usr/bin/timer", []string{"timer"}, nil, loader.WithDisableVDSO())
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if timeCalls != 1 {
		t.Fatalf("gettimeofday trapped %d times with vdso disabled; want 1", timeCalls)
	}
}

func TestLdPreloadLoadsLibraryAndRunsInit(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	// A preload library whose guest init writes a marker to stdout.
	pb := asm.NewBuilder("/usr/lib/libpre.so")
	pb.Needed(libc.Path)
	ro := pb.Rodata()
	ro.Label(".mark").CString("PRE!")
	pt := pb.Text()
	pt.Label("libpre_init")
	pt.MovImm32(cpu.RDI, 1)
	pt.MovImmSym(cpu.RSI, ".mark")
	pt.MovImm32(cpu.RDX, 4)
	pt.CallSym("write")
	pt.Ret()
	pb.Init("libpre_init")
	reg.MustAdd(pb.MustBuild())

	env := []string{"LD_PRELOAD=/usr/lib/libpre.so"}
	p, err := l.Spawn("/usr/bin/hello", []string{"hello"}, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if got := string(p.Stdout); got != "PRE!hello\n" {
		t.Fatalf("stdout = %q; preload init did not run before main", got)
	}
}

func TestEmptyEnvSkipsPreload(t *testing.T) {
	// Pitfall P1a in miniature: no LD_PRELOAD in env, no injection.
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	pb := asm.NewBuilder("/usr/lib/libpre.so")
	pb.Needed(libc.Path)
	pt := pb.Text()
	pt.Label("libpre_init")
	pt.Ret()
	pb.Init("libpre_init")
	reg.MustAdd(pb.MustBuild())

	p, err := l.Spawn("/usr/bin/hello", []string{"hello"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range l.Loaded(p) {
		if li.Image.Path == "/usr/lib/libpre.so" {
			t.Fatal("preload library loaded without LD_PRELOAD")
		}
	}
	_ = k
}

func TestExecveReplacesImage(t *testing.T) {
	k, l, reg := newWorld(t)
	reg.MustAdd(buildHello())

	// execer: execve("/usr/bin/hello", {"hello"}, {}) — with an empty
	// environment, as in the paper's Listing 1.
	b := asm.NewBuilder("/usr/bin/execer")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".path").CString("/usr/bin/hello")
	d.Label(".argv0").CString("hello")
	d.Label(".argv").AddrOf(".argv0").U64(0)
	d.Label(".envp").U64(0)
	t2 := b.Text()
	t2.Label("_start")
	t2.MovImmSym(cpu.RDI, ".path")
	t2.MovImmSym(cpu.RSI, ".argv")
	t2.MovImmSym(cpu.RDX, ".envp")
	t2.CallSym("execve")
	// If execve returns, fail loudly.
	t2.MovImm32(cpu.RDI, 99)
	t2.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p, err := l.Spawn("/usr/bin/execer", []string{"execer"}, []string{"X=1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if got := string(p.Stdout); got != "hello\n" {
		t.Fatalf("stdout after exec = %q", got)
	}
	if p.Exit.Code != 7 {
		t.Fatalf("exit = %+v; exec target did not run", p.Exit)
	}
	if p.Path != "/usr/bin/hello" {
		t.Fatalf("process path = %q", p.Path)
	}
	if len(p.Env) != 0 {
		t.Fatalf("env survived exec with empty envp: %v", p.Env)
	}
}

func TestForkWaitChild(t *testing.T) {
	k, l, reg := newWorld(t)

	b := asm.NewBuilder("/usr/bin/forker")
	b.Needed(libc.Path)
	ro := b.Rodata()
	ro.Label(".child").CString("C")
	ro.Label(".parent").CString("P")
	t2 := b.Text()
	t2.Label("_start")
	t2.CallSym("fork")
	t2.Test(cpu.RAX, cpu.RAX)
	t2.Jz(".in_child")
	// parent: wait4(pid, 0, 0, 0) then print "P"
	t2.Mov(cpu.RDI, cpu.RAX)
	t2.MovImm32(cpu.RSI, 0)
	t2.CallSym("wait4")
	t2.MovImm32(cpu.RDI, 1)
	t2.MovImmSym(cpu.RSI, ".parent")
	t2.MovImm32(cpu.RDX, 1)
	t2.CallSym("write")
	t2.MovImm32(cpu.RDI, 0)
	t2.CallSym("exit_group")
	t2.Label(".in_child")
	t2.MovImm32(cpu.RDI, 1)
	t2.MovImmSym(cpu.RSI, ".child")
	t2.MovImm32(cpu.RDX, 1)
	t2.CallSym("write")
	t2.MovImm32(cpu.RDI, 3)
	t2.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p, err := l.Spawn("/usr/bin/forker", []string{"forker"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if got := string(p.Stdout); got != "P" {
		t.Fatalf("parent stdout = %q", got)
	}
	// The child is a distinct process with its own stdout.
	var child *kernel.Process
	for _, cp := range k.Processes() {
		if cp.Parent == p {
			child = cp
		}
	}
	if child == nil {
		t.Fatal("child process not found")
	}
	if got := string(child.Stdout); got != "C" {
		t.Fatalf("child stdout = %q", got)
	}
	if child.Exit.Code != 3 {
		t.Fatalf("child exit = %+v", child.Exit)
	}
}

func TestDlopenLoadsAtRuntime(t *testing.T) {
	k, l, reg := newWorld(t)

	// Plugin with an exported function the main binary calls after
	// dlopen (the P2a scenario: code arriving after load time).
	plug := asm.NewBuilder("/usr/lib/plugin.so")
	plug.Needed(libc.Path)
	pt := plug.Text()
	pt.Label("plugin_fn")
	pt.MovImm32(cpu.RAX, 4242)
	pt.Ret()
	reg.MustAdd(plug.MustBuild())

	b := asm.NewBuilder("/usr/bin/host")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".plugpath").CString("/usr/lib/plugin.so")
	t2 := b.Text()
	t2.Label("_start")
	t2.MovImmSym(cpu.RDI, ".plugpath")
	t2.CallSym("dlopen")
	t2.Test(cpu.RAX, cpu.RAX)
	t2.Jz(".fail")
	t2.MovImm32(cpu.RDI, 0)
	t2.CallSym("exit_group")
	t2.Label(".fail")
	t2.MovImm32(cpu.RDI, 1)
	t2.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p, err := l.Spawn("/usr/bin/host", []string{"host"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 20_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 0 {
		t.Fatalf("dlopen failed: exit %+v", p.Exit)
	}
	found := false
	for _, li := range l.Loaded(p) {
		if li.Image.Path == "/usr/lib/plugin.so" {
			found = true
		}
	}
	if !found {
		t.Fatal("plugin not in loaded set")
	}
}

// TestPreloadSymbolInterposes: a symbol an LD_PRELOAD library and libc
// both export resolves to the preload's definition, for the program's
// load-time relocation and for dlsym alike — the preload is earlier in
// the link map, and the first definition wins.
func TestPreloadSymbolInterposes(t *testing.T) {
	k, l, reg := newWorld(t)

	pb := asm.NewBuilder("/usr/lib/libgetpid.so")
	pt := pb.Text()
	pt.Label("getpid")
	pt.MovImm32(cpu.RAX, 77)
	pt.Ret()
	pre := pb.MustBuild()
	reg.MustAdd(pre)

	b := asm.NewBuilder("/usr/bin/pid2")
	b.Needed(libc.Path)
	b.Rodata().Label(".name").CString("getpid")
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("getpid") // relocated against the global namespace
	tx.Mov(cpu.RBX, cpu.RAX)
	tx.MovImmSym(cpu.RDI, ".name")
	tx.CallSym("dlsym")
	tx.CallReg(cpu.RAX)
	tx.Add(cpu.RAX, cpu.RBX)
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())

	p, err := l.Spawn("/usr/bin/pid2", []string{"pid2"}, []string{"LD_PRELOAD=/usr/lib/libgetpid.so"})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilExit(p, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 2*77 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v, want code %d: getpid did not resolve to the preload", p.Exit, 2*77)
	}
	var base uint64
	for _, li := range l.Loaded(p) {
		if li.Image == pre {
			base = li.Base
		}
	}
	off, _ := pre.SymbolOff("getpid")
	if got, ok := l.GlobalSymbol(p, "getpid"); !ok || got != base+off {
		t.Fatalf("GlobalSymbol(getpid) = %#x, %v; want the preload's %#x", got, ok, base+off)
	}
}
