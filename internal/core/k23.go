package core

import (
	"fmt"
	"strings"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
	"k23/internal/mem"
	"k23/internal/ptracer"
	"k23/internal/robinset"
	"k23/internal/sud"
)

// Fake system call numbers used for the ptracer<->libK23 handoff (§5.3).
// They do not exist in the kernel; the ptracer recognizes and suppresses
// them, and they fail harmlessly with ENOSYS if no tracer is attached.
const (
	FakeSyscallHandoff = 600
	FakeSyscallDetach  = 601
)

// LogEnvVar tells libK23 where the offline log lives.
const LogEnvVar = "K23_LOG"

// Hostcall ids used by libK23.
const (
	hcSigsys int32 = 130
	hcEnter  int32 = 131
)

// Cost knobs (cycles), calibrated against Table 5; see EXPERIMENTS.md.
const (
	// RobinCheckCost is one robin-set membership test: pricier than
	// zpoline's bitmap probe — the deliberate memory-for-time trade
	// (§6.2.1).
	RobinCheckCost = 23
	enterCost      = 0
	sigsysCost     = 40
)

// K23 is the Launcher for the paper's interposer.
type K23 struct {
	Config interpose.Config
	// LogPath is the offline-phase log consumed by the single selective
	// rewriting step. Empty means "no rewriting": every syscall takes
	// the SUD fallback.
	LogPath string
	img     *image.Image
}

// New returns a K23 launcher. Variant selection follows Table 4:
// Config{} is K23-default, NullExecCheck is K23-ultra, NullExecCheck+
// StackSwitch is K23-ultra+.
func New(cfg interpose.Config, logPath string) *K23 {
	k := &K23{Config: cfg, LogPath: logPath}
	k.img = k.buildLibrary()
	return k
}

// Name implements interpose.Launcher.
func (z *K23) Name() string {
	switch {
	case z.Config.StackSwitch && z.Config.NullExecCheck:
		return "k23-ultra+"
	case z.Config.NullExecCheck:
		return "k23-ultra"
	default:
		return "k23-default"
	}
}

// LibraryPath is libK23's path.
func (z *K23) LibraryPath() string { return "/usr/lib/libk23.so" }

// state is the per-process interposer state.
type state struct {
	stats        interpose.Stats
	selectorAddr uint64
	gate         sud.Gate
	sites        *robinset.Set
	// StartupSyscalls is the handoff payload received from the ptracer.
	StartupSyscalls uint64
}

func stateOf(p *kernel.Process) (*state, error) {
	st, ok := p.Interposer.(*state)
	if !ok {
		return nil, fmt.Errorf("k23: process %d not interposed", p.PID)
	}
	return st, nil
}

// Launch implements interpose.Launcher: attach the ptracer, disable the
// vdso, force LD_PRELOAD injection, and start the program. The online
// phase then unfolds: ptracer covers startup, libK23's constructor takes
// the handoff and detaches it, and steady state runs on rewrite + SUD.
func (z *K23) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	if _, ok := w.Reg.Lookup(z.LibraryPath()); !ok {
		w.Reg.MustAdd(z.img)
	}
	env = kernel.SetEnv(append([]string(nil), env...), loader.LdPreloadVar, z.LibraryPath())
	if z.LogPath != "" {
		env = kernel.SetEnv(env, LogEnvVar, z.LogPath)
	}
	tr := &k23Tracer{k23: z}
	return w.L.Spawn(path, argv, env,
		loader.WithTracer(tr),
		loader.WithDisableVDSO(),
		loader.WithPreInit(func(p *kernel.Process, t *kernel.Thread) error {
			tr.proc = p
			return nil
		}),
	)
}

// Stats implements interpose.Launcher.
func (z *K23) Stats(p *kernel.Process) *interpose.Stats {
	st, err := stateOf(p)
	if err != nil {
		return &interpose.Stats{}
	}
	return &st.stats
}

var _ interpose.Launcher = (*K23)(nil)

// StartupSyscalls returns the count the ptracer handed off (E7's
// measurement surface).
func (z *K23) StartupSyscalls(p *kernel.Process) uint64 {
	st, err := stateOf(p)
	if err != nil {
		return 0
	}
	return st.StartupSyscalls
}

// ---------------------------------------------------------------------
// ptracer component ("ptracer" row of Table 1)
// ---------------------------------------------------------------------

// k23Tracer interposes everything before and during library loading,
// enforces LD_PRELOAD across execve (P1a), services the fake-syscall
// handoff, and detaches on request.
type k23Tracer struct {
	k23      *K23
	proc     *kernel.Process
	syscalls uint64
}

var _ kernel.Tracer = (*k23Tracer)(nil)

// SyscallEnter implements kernel.Tracer.
func (tr *k23Tracer) SyscallEnter(k *kernel.Kernel, t *kernel.Thread, nr, site uint64) bool {
	switch nr {
	case FakeSyscallHandoff:
		// libK23 passes the address of its handoff block in arg0; the
		// ptracer transfers its accumulated state there via the
		// process_vm_writev-style kernel plane (§5.3). The call must
		// originate from libK23, not from potentially compromised code.
		regs := k.TraceeRegs(t)
		if !tr.fromLibK23(t, site) {
			regs.R[cpu.RAX] = ^uint64(0) // -EPERM-ish; refuse
			return true
		}
		dst := regs.Arg(0)
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			buf[i] = byte(tr.syscalls >> (8 * i))
		}
		_ = k.TraceePoke(t, dst, buf)
		if st, err := stateOf(t.Proc); err == nil {
			st.stats.Ptraced = tr.syscalls
		}
		regs.R[cpu.RAX] = 0
		return true
	case FakeSyscallDetach:
		regs := k.TraceeRegs(t)
		if !tr.fromLibK23(t, site) {
			regs.R[cpu.RAX] = ^uint64(0)
			return true
		}
		k.DetachTracer(t.Proc)
		regs.R[cpu.RAX] = 0
		return true
	}

	tr.syscalls++
	if tr.k23.Config.Hook != nil {
		return ptracer.Stop(k, t, nr, site, tr.k23.Config.Hook)
	}
	// Startup-phase attribution without the hook machinery: the ptracer
	// component sees (and therefore claims) every call from the first
	// instruction. Registers are read directly — the attribution stream
	// must not add ptrace-access charges the unobserved run would not pay.
	if k.Tracing() {
		c := interpose.NewCall(k, t, interpose.MechPtrace, nr, site, &t.Core.Ctx)
		interpose.Observe(&c)
	}
	// The handler span covers only the stop itself; the kernel slice
	// that follows lands in the enclosing trap span.
	k.EmitPhase(t, kernel.PhHandler, nr, site, interpose.MechPtrace.String())
	k.EmitPhase(t, kernel.PhForward, nr, site, interpose.MechPtrace.String())
	k.EmitPhase(t, kernel.PhHandlerRet, nr, site, interpose.MechPtrace.String())
	return false
}

// fromLibK23 verifies that a fake syscall's site lies inside libK23's
// mapping — the §5.3 origin check.
func (tr *k23Tracer) fromLibK23(t *kernel.Thread, site uint64) bool {
	r, ok := t.Proc.AS.RegionAt(site)
	return ok && (r.Name == tr.k23.LibraryPath() || r.Name == loader.LdsoPath)
}

// SyscallExit implements kernel.Tracer: the exit stop observes nothing.
func (tr *k23Tracer) SyscallExit(k *kernel.Kernel, t *kernel.Thread, nr, ret uint64) {}

// Execve implements kernel.Tracer: if LD_PRELOAD no longer carries
// libK23 — attacker scrubbing or benign empty environments (Listing 1) —
// the ptracer overwrites it, defeating P1a.
func (tr *k23Tracer) Execve(k *kernel.Kernel, t *kernel.Thread, path string, argv, env []string) []string {
	newEnv := append([]string(nil), env...)
	if cur, ok := kernel.GetEnv(newEnv, loader.LdPreloadVar); !ok || !strings.Contains(cur, tr.k23.LibraryPath()) {
		newEnv = kernel.SetEnv(newEnv, loader.LdPreloadVar, tr.k23.LibraryPath())
	}
	if tr.k23.LogPath != "" {
		if _, ok := kernel.GetEnv(newEnv, LogEnvVar); !ok {
			newEnv = kernel.SetEnv(newEnv, LogEnvVar, tr.k23.LogPath)
		}
	}
	tr.syscalls = 0 // fresh program image: restart the startup count
	return newEnv
}

// ---------------------------------------------------------------------
// libK23 (in-process component, Table 1)
// ---------------------------------------------------------------------

// buildLibrary assembles libk23.so.
func (z *K23) buildLibrary() *image.Image {
	b := asm.NewBuilder(z.LibraryPath())
	b.Needed(libc.Path)

	d := b.Data()
	d.Label("k23_selector").Raw(kernel.SelectorAllow)
	d.Align(8)
	d.Label("k23_frame").Space(7 * 8)
	d.Label("k23_handoff").Space(8)

	t := b.Text()

	// k23_tramp: fast path for rewritten sites. Unlike zpoline and
	// lazypoline, K23 does not preserve RCX/R11 — the kernel clobbers
	// them during syscall execution anyway (§6.2.1), so the trampoline
	// reuses them as scratch.
	t.Label("k23_tramp")
	t.MovImmSym(cpu.R11, "k23_selector")
	t.MovImm32(cpu.RCX, kernel.SelectorAllow)
	t.StoreB(cpu.R11, 0, cpu.RCX)
	t.Hostcall(hcEnter) // NULL-exec robin-set check (ultra) + hook
	if z.Config.StackSwitch {
		// Dedicated per-thread interposer stack (ultra+, §5.3). The TLS
		// block holds {saved rsp, alt-stack top}.
		t.Rdfsbase(cpu.RCX)
		t.Store(cpu.RCX, 0, cpu.RSP)
		t.Load(cpu.RSP, cpu.RCX, 8)
	}
	t.Test(cpu.R11, cpu.R11)
	t.Jnz(".k23_skip")
	t.Syscall()
	t.Label(".k23_skip")
	if z.Config.StackSwitch {
		t.Rdfsbase(cpu.RCX)
		t.Load(cpu.RSP, cpu.RCX, 0)
	}
	t.MovImmSym(cpu.R11, "k23_selector")
	t.MovImm32(cpu.RCX, kernel.SelectorBlock)
	t.StoreB(cpu.R11, 0, cpu.RCX)
	t.Ret()

	// k23_sigsys: the SUD fallback for sites the offline phase missed.
	// Unlike lazypoline it NEVER rewrites — rewriting is restricted to
	// pre-validated sites in the single init-time step (§5.2).
	t.Label("k23_sigsys")
	t.Hostcall(hcSigsys)
	t.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	t.Syscall()

	// k23_do_syscall: frame-based gate inside the allowlisted range.
	t.Label("k23_do_syscall")
	t.MovImmSym(cpu.R11, "k23_frame")
	t.Load(cpu.RAX, cpu.R11, 0)
	t.Load(cpu.RDI, cpu.R11, 8)
	t.Load(cpu.RSI, cpu.R11, 16)
	t.Load(cpu.RDX, cpu.R11, 24)
	t.Load(cpu.R10, cpu.R11, 32)
	t.Load(cpu.R8, cpu.R11, 40)
	t.Load(cpu.R9, cpu.R11, 48)
	t.Syscall()
	t.Ret()

	// k23_serialize: CPUID after the rewriting step — principled
	// cross-modifying-code hygiene (contrast with lazypoline's P5).
	t.Label("k23_serialize")
	t.Cpuid()
	t.Ret()

	// k23_set_pkru(value).
	t.Label("k23_set_pkru")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Wrpkru()
	t.Ret()

	// k23_set_fsbase(value): install the per-thread TLS block.
	t.Label("k23_set_fsbase")
	t.Wrfsbase(cpu.RDI)
	t.Ret()

	// k23_fake_syscall(nr, arg): issues the ptracer handoff calls from
	// inside libK23 (the origin the ptracer verifies).
	t.Label("k23_fake_syscall")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Mov(cpu.RDI, cpu.RSI)
	t.Syscall()
	t.Ret()

	b.InitHost(z.initHost)
	return b.MustBuild()
}

// initHost is libK23's constructor: handoff, detach, trampoline,
// selective rewrite, SUD fallback.
func (z *K23) initHost(h any, base uint64) error {
	ih, ok := h.(*loader.InitHandle)
	if !ok {
		return fmt.Errorf("k23: unexpected init handle %T", h)
	}
	k, p, t := ih.L.K, ih.P, ih.T

	st := &state{sites: robinset.New(128)}
	p.Interposer = st
	sym := func(name string) uint64 {
		off, _ := z.img.SymbolOff(name)
		return base + off
	}
	st.selectorAddr = sym("k23_selector")
	st.gate = sud.Gate{Frame: sym("k23_frame"), Stub: sym("k23_do_syscall")}

	k.RegisterHostcall(p, hcSigsys, &kernel.Hostcall{Name: "k23_sigsys", Cost: sigsysCost, Fn: z.hcSigsysFn})
	k.RegisterHostcall(p, hcEnter, &kernel.Hostcall{Name: "k23_enter", Cost: enterCost, Fn: z.hcEnterFn})

	// 1. Fake-syscall handoff: the ptracer pokes its accumulated state
	// (startup syscall count) into k23_handoff, then detaches.
	if _, err := k.CallGuestInfra(t, sym("k23_fake_syscall"),
		[6]uint64{FakeSyscallHandoff, sym("k23_handoff")}); err != nil {
		return err
	}
	if v, err := p.AS.KLoadU64(sym("k23_handoff")); err == nil {
		st.StartupSyscalls = v
	}
	if _, err := k.CallGuestInfra(t, sym("k23_fake_syscall"), [6]uint64{FakeSyscallDetach}); err != nil {
		return err
	}

	// 2. Trampoline at 0 with PKU-XOM (as zpoline/lazypoline, §5.3).
	ret, err := ih.Sys(kernel.SysMmap, 0, mem.PageSize,
		kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec, kernel.MapFixed)
	if err != nil || ret != 0 {
		return fmt.Errorf("k23: trampoline mmap -> %#x, %v", ret, err)
	}
	tramp := make([]byte, 0, 512+12)
	for i := 0; i < 512; i++ {
		tramp = append(tramp, cpu.ByteNop)
	}
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpMovImm, A: cpu.R11, Imm: int64(sym("k23_tramp"))})...)
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpJmpReg, A: cpu.R11})...)
	if err := t.Core.StoreAsSelf(0, tramp); err != nil {
		return err
	}
	key, err := ih.Sys(kernel.SysPkeyAlloc)
	if err != nil {
		return err
	}
	if _, err := ih.Sys(kernel.SysPkeyMprotect, 0, mem.PageSize,
		kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec, key); err != nil {
		return err
	}
	pkru := uint64(mem.PKRU(0).DenyAccess(int(key)))
	if _, err := k.CallGuest(t, sym("k23_set_pkru"), [6]uint64{pkru}); err != nil {
		return err
	}

	// 3. Dedicated per-thread stack (ultra+): a TLS block per thread
	// holding {saved rsp, alt-stack top}.
	if z.Config.StackSwitch {
		tls, err := ih.Sys(kernel.SysMmap, 0, mem.PageSize, kernel.ProtRead|kernel.ProtWrite, 0)
		if err != nil {
			return err
		}
		stk, err := ih.Sys(kernel.SysMmap, 0, 4*mem.PageSize, kernel.ProtRead|kernel.ProtWrite, 0)
		if err != nil {
			return err
		}
		if e, isE := kernel.IsErr(stk); isE {
			return fmt.Errorf("k23: alt stack mmap: errno %d", e)
		}
		if err := p.AS.KStoreU64(tls+8, stk+4*mem.PageSize-64); err != nil {
			return err
		}
		if _, err := k.CallGuest(t, sym("k23_set_fsbase"), [6]uint64{tls}); err != nil {
			return err
		}
	}

	// 4. Single selective rewrite of offline-validated sites.
	if err := z.rewriteLoggedSites(ih, st, base); err != nil {
		return err
	}
	// Serialize the instruction stream after rewriting (CPUID).
	if _, err := k.CallGuest(t, sym("k23_serialize"), [6]uint64{}); err != nil {
		return err
	}
	st.stats.Sites = st.sites.Len()
	st.stats.MemResidentBytes = st.sites.MemBytes()
	k.EmitGuardMem(p, "robin-set", st.stats.MemResidentBytes, st.stats.MemResidentBytes)

	// 5. SUD fallback: catches everything the offline phase missed
	// (P2a); never rewrites.
	if _, err := ih.Sys(kernel.SysRtSigaction, kernel.SIGSYS, sym("k23_sigsys")); err != nil {
		return err
	}
	text, _ := z.img.Section(".text")
	if _, err := ih.Sys(kernel.SysPrctl, kernel.PrSetSyscallUserDispatch, kernel.PrSysDispatchOn,
		base+text.Off, text.Size, st.selectorAddr); err != nil {
		return err
	}
	return p.AS.Store(st.selectorAddr, []byte{kernel.SelectorBlock}, t.Core.PKRU)
}

// rewriteLoggedSites maps (region, offset) log entries to addresses,
// validates each holds a genuine SYSCALL/SYSENTER encoding, and rewrites
// it with permissions saved/restored and an atomic two-byte store.
func (z *K23) rewriteLoggedSites(ih *loader.InitHandle, st *state, base uint64) error {
	if z.LogPath == "" {
		return nil
	}
	k, p, t := ih.L.K, ih.P, ih.T
	logName := z.LogPath
	if v, ok := p.Getenv(LogEnvVar); ok {
		logName = v
	}
	data, err := k.FS.ReadFile(logName)
	if err != nil {
		// Missing log: fall back to pure SUD interposition.
		return nil
	}
	entries, err := ParseLog(data)
	if err != nil {
		return fmt.Errorf("k23: %w", err)
	}

	// Region name -> load base (lowest region start).
	bases := make(map[string]uint64)
	for _, r := range p.AS.Regions() {
		if cur, ok := bases[r.Name]; !ok || r.Start < cur {
			bases[r.Name] = r.Start
		}
	}

	for _, e := range entries {
		rb, ok := bases[e.Region]
		if !ok {
			continue // region not mapped in this run
		}
		addr := rb + e.Offset
		// Pre-validation: the bytes must be a genuine syscall encoding;
		// anything else means a stale or hostile log entry and is
		// refused — no corrupting rewrites, ever (P3).
		b, err := p.AS.KLoad(addr, 2)
		if err != nil {
			continue
		}
		if b[0] != cpu.BytePrefix0F || (b[1] != cpu.ByteSyscall2 && b[1] != cpu.ByteSysenter2) {
			continue
		}
		perm, _, ok := p.AS.PermAt(addr)
		if !ok {
			continue
		}
		pageAddr := mem.PageBase(addr)
		span := addr + uint64(cpu.SyscallInstLen) - pageAddr
		if _, err := ih.Sys(kernel.SysMprotect, pageAddr, span,
			kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec); err != nil {
			return err
		}
		// Atomic two-byte store (contrast with lazypoline's torn pair).
		if err := t.Core.StoreAsSelf(addr, cpu.CallRaxBytes); err != nil {
			return err
		}
		if _, err := ih.Sys(kernel.SysMprotect, pageAddr, span, kernel.PermToProt(perm)); err != nil {
			return err
		}
		st.sites.Insert(addr)
	}
	return nil
}

// guard aborts on attempts to tamper with SUD (P1b, §5.2) and re-attaches
// the ptracer ahead of execve so the whole online phase repeats in the
// new program image (§5.3).
func (z *K23) guard(k *kernel.Kernel, t *kernel.Thread, call *interpose.Call) error {
	switch call.Num {
	case kernel.SysPrctl:
		if call.Args[0] == kernel.PrSetSyscallUserDispatch {
			return interpose.Abort(fmt.Sprintf(
				"k23: prctl(PR_SET_SYSCALL_USER_DISPATCH, %d) from application code", call.Args[1]))
		}
	case kernel.SysExecve:
		if k.Tracer(t.Proc) == nil {
			tr := &k23Tracer{k23: z, proc: t.Proc}
			_ = k.AttachTracer(t.Proc, tr)
		}
	}
	return nil
}

// hcEnterFn: fast-path entry. Robin-set NULL-exec check (ultra), prctl
// guard, user hook.
func (z *K23) hcEnterFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	ctx := &t.Core.Ctx
	// Stack: [rsp] = return address (K23 pushes nothing before the
	// hostcall).
	retAddr, err := t.Proc.AS.KLoadU64(ctx.R[cpu.RSP])
	if err != nil {
		return fmt.Errorf("k23: cannot read return address: %w", err)
	}
	site := retAddr - uint64(cpu.CallRegInstLen)

	if z.Config.NullExecCheck {
		t.ExtraCycles += RobinCheckCost
		if !st.sites.Contains(site) {
			st.stats.NullExecAborts++
			return interpose.Abort(fmt.Sprintf("k23: trampoline entry from unknown site %#x", site))
		}
	}

	st.stats.Rewritten++
	call := interpose.NewCall(k, t, interpose.MechRewrite, ctx.R[cpu.RAX], site, ctx)
	interpose.Phase(&call, kernel.PhHandler)
	if err := z.guard(k, t, &call); err != nil {
		return err
	}
	interpose.Observe(&call)
	interpose.Trampoline(&call, z.Config.Hook, ctx, retAddr, z.childSetup())
	return nil
}

// childSetup returns the clone-child setup of the ultra+ stack switch,
// or nil when the switch is off.
func (z *K23) childSetup() func(k *kernel.Kernel, parent, child *kernel.Thread) {
	if !z.Config.StackSwitch {
		return nil
	}
	return stackSwitchChild
}

// stackSwitchChild gives a clone child its own TLS block and dedicated
// stack, allocated by its parent.
func stackSwitchChild(k *kernel.Kernel, t, child *kernel.Thread) {
	tls := k.DirectSyscall(t, kernel.SysMmap,
		[6]uint64{0, mem.PageSize, kernel.ProtRead | kernel.ProtWrite})
	stk := k.DirectSyscall(t, kernel.SysMmap,
		[6]uint64{0, 4 * mem.PageSize, kernel.ProtRead | kernel.ProtWrite})
	_ = t.Proc.AS.KStoreU64(tls+8, stk+4*mem.PageSize-64)
	child.Core.TLS = tls
}

// hcSigsysFn: the SUD fallback handler body — guard, hook, execute,
// result into the saved context. Never rewrites anything.
func (z *K23) hcSigsysFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	tr, err := sud.Decode(k, t)
	if err != nil {
		return err
	}
	st.stats.SUD++
	if err := z.guard(k, t, &tr.Call); err != nil {
		return err
	}
	interpose.Observe(&tr.Call)
	return tr.Complete(z.Config.Hook, st.gate, z.childSetup())
}
