package core_test

import (
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// buildApp builds a program calling getpid n times, then getuid once,
// then exiting with the last getpid result.
func buildApp() *image.Image {
	b := asm.NewBuilder("/bin/app")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RBX, 5)
	tx.Label(".loop")
	tx.CallSym("getpid")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".loop")
	tx.Mov(cpu.RBP, cpu.RAX)
	tx.CallSym("getuid")
	tx.Mov(cpu.RDI, cpu.RBP)
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// runOffline profiles /bin/app and returns the world-independent log
// content plus entry count.
func runOffline(t *testing.T, w *interpose.World) (logPath string, n int) {
	t.Helper()
	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, "/bin/app", []string{"app"}, nil)
	if err != nil {
		t.Fatalf("offline start: %v", err)
	}
	if err := w.Run(run.Process()); err != nil {
		t.Fatalf("offline run: %v", err)
	}
	n, err = run.Finish()
	if err != nil {
		t.Fatalf("offline finish: %v", err)
	}
	return off.LogPath("app"), n
}

func TestOfflinePhaseLogsUniqueSites(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, n := runOffline(t, w)
	// getpid site + getuid site + exit_group site (+ possibly libc-init
	// sites are NOT logged: they run before libLogger's init).
	if n < 3 {
		t.Fatalf("offline logged %d sites, want >= 3", n)
	}
	data, err := w.K.FS.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), libc.Path+",") {
		t.Fatalf("log lacks libc entries:\n%s", data)
	}
	entries, err := core.ParseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("round trip: %d != %d", len(entries), n)
	}
	// The log directory is sealed immutable (§5.3).
	if !w.K.FS.IsImmutable("/var/k23/logs") {
		t.Fatal("log dir not immutable after Finish")
	}
	// And tampering fails.
	if err := w.K.FS.WriteFile(logPath, []byte("evil"), 0o6); err == nil {
		t.Fatal("tampering with sealed log succeeded")
	}
}

func TestOfflineRepeatRunsMerge(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	_, n1 := runOffline(t, w)
	_, n2 := runOffline(t, w)
	if n2 < n1 {
		t.Fatalf("second run lost entries: %d -> %d", n1, n2)
	}
}

func TestLogFormatRoundTrip(t *testing.T) {
	in := []core.LogEntry{
		{Region: "/usr/lib/libc.so.6", Offset: 1153562},
		{Region: "/usr/lib/libc.so.6", Offset: 11536},
		{Region: "/usr/bin/ls", Offset: 42},
	}
	out, err := core.ParseLog(core.FormatLog(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != (core.LogEntry{Region: "/usr/bin/ls", Offset: 42}) {
		t.Fatalf("sorted[0] = %+v", out[0])
	}
	if _, err := core.ParseLog([]byte("garbage-without-comma\n")); err == nil {
		t.Fatal("ParseLog accepted garbage")
	}
	if _, err := core.ParseLog([]byte("lib,notanumber\n")); err == nil {
		t.Fatal("ParseLog accepted bad offset")
	}
}

// launchOnline runs the online phase end to end and returns process +
// launcher.
func launchOnline(t *testing.T, w *interpose.World, cfg interpose.Config, logPath string) (*core.K23, *kernel.Process) {
	t.Helper()
	k23 := core.New(cfg, logPath)
	p, err := k23.Launch(w, "/bin/app", []string{"app"}, nil)
	if err != nil {
		t.Fatalf("online launch: %v", err)
	}
	if err := w.Run(p); err != nil {
		t.Fatalf("online run: %v", err)
	}
	return k23, p
}

func TestOnlinePhaseHybridMechanisms(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	// Remove getuid's site from the log to force the SUD fallback for
	// it (simulating incomplete offline coverage, P2a handling).
	w.K.FS.SetImmutable("/var/k23/logs", false)
	data, _ := w.K.FS.ReadFile(logPath)
	entries, _ := core.ParseLog(data)
	var li *image.Image = libc.Image()
	getuidSite := li.Symbols[".getuid_syscall_site"]
	var kept []core.LogEntry
	for _, e := range entries {
		if e.Region == libc.Path && e.Offset == getuidSite {
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) == len(entries) {
		t.Fatal("getuid site not found in log; test setup broken")
	}
	if err := w.K.FS.WriteFile(logPath, core.FormatLog(kept), 0o6); err != nil {
		t.Fatal(err)
	}

	var mechByNum = map[uint64][]interpose.Mechanism{}
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			mechByNum[c.Num] = append(mechByNum[c.Num], c.Mechanism)
			return 0, false
		},
	}
	k23, p := launchOnline(t, w, cfg, logPath)

	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
	// Startup syscalls were interposed by the ptracer.
	sawPtrace := false
	for _, ms := range mechByNum {
		for _, m := range ms {
			if m == interpose.MechPtrace {
				sawPtrace = true
			}
		}
	}
	if !sawPtrace {
		t.Fatal("no ptrace-mechanism calls: startup not interposed (P2b)")
	}
	// getpid (logged) went through the rewrite path. (libc's own init
	// issues one getpid during startup, legitimately ptraced.)
	rewrites := 0
	for _, m := range mechByNum[kernel.SysGetpid] {
		switch m {
		case interpose.MechRewrite:
			rewrites++
		case interpose.MechPtrace:
			// startup-phase call: fine
		default:
			t.Fatalf("getpid mechanisms = %v", mechByNum[kernel.SysGetpid])
		}
	}
	if rewrites != 5 {
		t.Fatalf("getpid rewritten-path count = %d, want 5", rewrites)
	}
	// getuid (scrubbed from the log) went through the SUD fallback;
	// libc-init's startup getuid legitimately shows up as ptrace.
	var nonStartup []interpose.Mechanism
	for _, m := range mechByNum[kernel.SysGetuid] {
		if m != interpose.MechPtrace {
			nonStartup = append(nonStartup, m)
		}
	}
	if len(nonStartup) != 1 || nonStartup[0] != interpose.MechSUD {
		t.Fatalf("getuid mechanisms = %v, want one SUD after startup", mechByNum[kernel.SysGetuid])
	}
	st := k23.Stats(p)
	if st.Ptraced == 0 || st.Rewritten == 0 || st.SUD == 0 {
		t.Fatalf("stats = %+v; all three mechanisms must fire", st)
	}
	if st.Sites == 0 {
		t.Fatal("no sites rewritten")
	}
	if st.Corruptions != 0 {
		t.Fatalf("K23 corrupted %d locations", st.Corruptions)
	}
	// The ptracer detached after init: its count stopped early.
	if k23.StartupSyscalls(p) < 20 {
		t.Fatalf("handoff count = %d", k23.StartupSyscalls(p))
	}
}

func TestOnlineExhaustiveTotal(t *testing.T) {
	// Every kernel syscall-entry must correspond to an interposed call:
	// ptraced (startup) + rewritten + SUD + libK23's own internal calls.
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	var kernelEnters int
	w.K.EventHook = func(ev kernel.Event) {
		if ev.Kind == kernel.EvEnter {
			kernelEnters++
		}
	}
	k23, p := launchOnline(t, w, interpose.Config{}, logPath)
	st := k23.Stats(p)
	if st.Total() == 0 {
		t.Fatal("nothing interposed")
	}
	// Application syscalls (post-handoff, non-interposer-owned) =
	// kernelEnters - interposer-internal calls; we conservatively check
	// the three mechanisms saw a substantial share.
	if int(st.Total()) < kernelEnters/3 {
		t.Fatalf("interposed %d of %d kernel entries", st.Total(), kernelEnters)
	}
}

func TestK23P1bPrctlGuardAborts(t *testing.T) {
	// Listing 2: the application tries to switch SUD off. K23 aborts.
	w := interpose.NewWorld()

	b := asm.NewBuilder("/bin/p1b")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	tx.MovImm32(cpu.RSI, kernel.PrSysDispatchOff)
	tx.MovImm32(cpu.RDX, 0)
	tx.MovImm32(cpu.R10, 0)
	tx.MovImm32(cpu.R8, 0)
	tx.CallSym("prctl")
	tx.CallSym("getpid") // never reached
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	k23 := core.New(interpose.Config{}, "")
	p, err := k23.Launch(w, "/bin/p1b", []string{"p1b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Run(p)
	if p.Exit.Signal == 0 {
		t.Fatalf("exit = %+v; K23 must abort on SUD tampering (P1b)", p.Exit)
	}
	if !strings.Contains(p.Exit.Fault, "prctl") {
		t.Fatalf("fault = %q", p.Exit.Fault)
	}
}

func TestK23P1aExecveReinjection(t *testing.T) {
	// Listing 1: execve with an empty environment. The ptracer rewrites
	// the environment so libK23 is still injected in the new image.
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	b := asm.NewBuilder("/bin/execer")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".path").CString("/bin/app")
	d.Label(".argv0").CString("app")
	d.Label(".argv").AddrOf(".argv0").U64(0)
	d.Label(".envp").U64(0) // empty environment
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, ".path")
	tx.MovImmSym(cpu.RSI, ".argv")
	tx.MovImmSym(cpu.RDX, ".envp")
	tx.CallSym("execve")
	tx.MovImm32(cpu.RDI, 99)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	var postExecInterposed int
	sawExec := false
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysExecve {
				sawExec = true
			} else if sawExec && c.Num == kernel.SysGetpid && c.Mechanism == interpose.MechRewrite {
				postExecInterposed++
			}
			return 0, false
		},
	}
	k23 := core.New(cfg, logPath)
	p, err := k23.Launch(w, "/bin/execer", []string{"execer"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(p); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != p.PID&0xff {
		t.Fatalf("exit = %+v; exec'd app did not run to completion", p.Exit)
	}
	if !sawExec {
		t.Fatal("execve itself was not interposed")
	}
	if postExecInterposed != 5 {
		t.Fatalf("interposed %d getpids after exec, want 5 (LD_PRELOAD re-injection failed: P1a)", postExecInterposed)
	}
	// The library really is in the environment despite envp = {}.
	if v, ok := p.Getenv("LD_PRELOAD"); !ok || !strings.Contains(v, "libk23") {
		t.Fatalf("LD_PRELOAD after exec = %q", v)
	}
}

func TestK23UltraAbortsNullCall(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	b := asm.NewBuilder("/bin/nullcall")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.Xor(cpu.RAX, cpu.RAX)
	tx.CallReg(cpu.RAX)
	tx.MovImm32(cpu.RDI, 55)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	k23 := core.New(interpose.Config{NullExecCheck: true}, logPath)
	p, err := k23.Launch(w, "/bin/nullcall", []string{"nullcall"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Run(p)
	if p.Exit.Signal == 0 {
		t.Fatalf("exit = %+v; k23-ultra must abort NULL-pointer trampoline entries (P4a)", p.Exit)
	}
	if k23.Stats(p).NullExecAborts != 1 {
		t.Fatalf("NullExecAborts = %d", k23.Stats(p).NullExecAborts)
	}
}

func TestK23MemoryFootprintIsSmall(t *testing.T) {
	// P4b: the robin set's footprint is bounded by the offline log, not
	// by the address space.
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	k23, p := launchOnline(t, w, interpose.Config{NullExecCheck: true}, logPath)
	st := k23.Stats(p)
	if st.MemResidentBytes == 0 || st.MemResidentBytes > 64*1024 {
		t.Fatalf("resident = %d bytes; want a few KiB at most", st.MemResidentBytes)
	}
	if st.MemReservedBytes != 0 {
		t.Fatalf("reserved = %d; the hash set reserves nothing", st.MemReservedBytes)
	}
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
}

func TestK23UltraPlusStackSwitch(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	k23, p := launchOnline(t, w,
		interpose.Config{NullExecCheck: true, StackSwitch: true}, logPath)
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v (stack switch broke the fast path)", p.Exit)
	}
	if k23.Name() != "k23-ultra+" {
		t.Fatalf("name = %q", k23.Name())
	}
	if k23.Stats(p).Rewritten == 0 {
		t.Fatal("no rewritten-path calls")
	}
}

func TestK23WithoutLogIsPureSUD(t *testing.T) {
	// No offline log: everything post-startup rides the SUD fallback.
	w := interpose.NewWorld()
	w.MustRegister(buildApp())

	k23, p := launchOnline(t, w, interpose.Config{}, "")
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v", p.Exit)
	}
	st := k23.Stats(p)
	if st.Rewritten != 0 {
		t.Fatalf("rewritten = %d without a log", st.Rewritten)
	}
	if st.SUD == 0 {
		t.Fatal("SUD fallback did not fire")
	}
}

func TestK23HookEmulation(t *testing.T) {
	w := interpose.NewWorld()
	w.MustRegister(buildApp())
	logPath, _ := runOffline(t, w)

	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid && c.Mechanism == interpose.MechRewrite {
				return 111, true
			}
			return 0, false
		},
	}
	_, p := launchOnline(t, w, cfg, logPath)
	if p.Exit.Code != 111 {
		t.Fatalf("exit = %+v, want emulated 111", p.Exit)
	}
}

func TestK23VariantNames(t *testing.T) {
	cases := []struct {
		cfg  interpose.Config
		want string
	}{
		{interpose.Config{}, "k23-default"},
		{interpose.Config{NullExecCheck: true}, "k23-ultra"},
		{interpose.Config{NullExecCheck: true, StackSwitch: true}, "k23-ultra+"},
	}
	for _, c := range cases {
		if got := core.New(c.cfg, "").Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
