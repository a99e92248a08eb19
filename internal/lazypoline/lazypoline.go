// Package lazypoline reimplements the lazypoline interposer (Jacobs et
// al., DSN'24): zpoline-style rewriting without static disassembly. SUD
// intercepts the *first* execution of each SYSCALL/SYSENTER site; the
// SIGSYS handler rewrites that site to `callq *%rax` so subsequent
// executions take the fast trampoline path.
//
// The paper's uncovered flaws are reproduced deliberately:
//   - P1a/P1b: LD_PRELOAD injection with no execve safeguard; a plain
//     prctl(PR_SYS_DISPATCH_OFF) silently disables the whole mechanism.
//   - P2b: startup and vdso calls are missed.
//   - P3b: whatever trapped gets rewritten — an attacker steering
//     control flow into data or partial instructions whose bytes encode
//     0F 05 makes lazypoline corrupt that memory.
//   - P4a: no check on unintended control transfers into the page-zero
//     trampoline.
//   - P5: the two-byte rewrite is two independent single-byte stores
//     (tearable mid-way), no serialization is performed (stale I-cache
//     on other cores), and page permissions are "restored" to an assumed
//     RX instead of the saved original.
package lazypoline

import (
	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
	"k23/internal/mem"
	"k23/internal/sud"
)

// Hostcall ids.
const (
	hcSigsys  int32 = 120
	hcRestore int32 = 121
	hcEnter   int32 = 122
)

// Lazypoline is the Launcher.
type Lazypoline struct {
	Config interpose.Config
	img    *image.Image
}

// New returns a lazypoline launcher.
func New(cfg interpose.Config) *Lazypoline {
	l := &Lazypoline{Config: cfg}
	l.img = l.buildLibrary()
	return l
}

// Name implements interpose.Launcher.
func (l *Lazypoline) Name() string { return "lazypoline" }

// LibraryPath is the injected library path.
func (l *Lazypoline) LibraryPath() string { return "/usr/lib/liblazypoline.so" }

// state is per-process runtime state.
type state struct {
	stats       interpose.Stats
	gate        sud.Gate
	scratchAddr uint64 // rewrite scratch block: {addr, b0, b1}
	truth       map[uint64]bool
	rewritten   map[uint64]bool
}

// stateOf extracts the per-process state.
func stateOf(p *kernel.Process) (*state, error) { return interpose.StateOf[state](p, "lazypoline") }

// Launch implements interpose.Launcher.
func (l *Lazypoline) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	return w.L.Spawn(path, argv, w.Preload(l.img, env))
}

// Stats implements interpose.Launcher.
func (l *Lazypoline) Stats(p *kernel.Process) *interpose.Stats {
	if st, err := stateOf(p); err == nil {
		return &st.stats
	}
	return &interpose.Stats{}
}

var _ interpose.Launcher = (*Lazypoline)(nil)

// buildLibrary assembles liblazypoline.so.
func (l *Lazypoline) buildLibrary() *image.Image {
	b := asm.NewBuilder(l.LibraryPath())
	b.Needed(libc.Path)

	d := b.Data()
	d.Label("lz_selector").Raw(kernel.SelectorAllow)
	d.Align(8)
	d.Label("lz_frame").Space(7 * 8)
	d.Label("lz_scratch").Space(3 * 8) // {site addr (0 = none), byte0, byte1}

	t := b.Text()

	// SIGSYS handler: host logic decides whether to rewrite; the actual
	// write is performed here in guest code as TWO SEPARATE BYTE STORES
	// with no fence and no I-cache serialization — the P5 hazard.
	t.Label("lz_handler")
	t.Hostcall(hcSigsys)
	t.MovImmSym(cpu.R11, "lz_scratch")
	t.Load(cpu.RCX, cpu.R11, 0) // target site (0 = nothing to rewrite)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".lz_no_rewrite")
	t.Load(cpu.R10, cpu.R11, 8)
	t.StoreB(cpu.RCX, 0, cpu.R10) // first byte lands...
	t.Load(cpu.R10, cpu.R11, 16)
	t.StoreB(cpu.RCX, 1, cpu.R10) // ...second byte later: torn window
	t.Hostcall(hcRestore)         // "restore" permissions (to assumed RX)
	t.Label(".lz_no_rewrite")
	t.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	t.Syscall()

	sud.EmitGateStub(t, "lz_do_syscall", "lz_frame")

	// lz_tramp: the fast path for rewritten sites. lazypoline preserves
	// RCX/R11 and toggles the SUD selector around its work — costlier
	// than zpoline's handler, cheaper than a SIGSYS (§6.2.1).
	t.Label("lz_tramp")
	t.Push(cpu.RCX)
	t.Push(cpu.R11)
	t.MovImmSym(cpu.R11, "lz_selector")
	t.MovImm32(cpu.RCX, kernel.SelectorAllow)
	t.StoreB(cpu.R11, 0, cpu.RCX)
	t.Hostcall(hcEnter)
	t.Test(cpu.R11, cpu.R11)
	t.Jnz(".lz_skip")
	t.Syscall()
	t.Label(".lz_skip")
	t.MovImmSym(cpu.R11, "lz_selector")
	t.MovImm32(cpu.RCX, kernel.SelectorBlock)
	t.StoreB(cpu.R11, 0, cpu.RCX)
	t.Pop(cpu.R11)
	t.Pop(cpu.RCX)
	t.Ret()

	b.InitHost(loader.Constructor(l.initHost))
	return b.MustBuild()
}

// initHost maps the trampoline, arms SUD, and installs hostcalls. No
// disassembly happens — discovery is lazy.
func (l *Lazypoline) initHost(ih *loader.InitHandle) error {
	k, p, t := ih.L.K, ih.P, ih.T

	st := &state{
		gate:        sud.Gate{Frame: ih.Sym("lz_frame"), Stub: ih.Sym("lz_do_syscall")},
		scratchAddr: ih.Sym("lz_scratch"),
		truth:       ih.L.TrueSites(p),
		rewritten:   make(map[uint64]bool),
	}
	p.Interposer = st

	k.RegisterHostcall(p, hcSigsys, &kernel.Hostcall{Name: "lz_sigsys", Cost: 40, Fn: l.hcSigsysFn})
	k.RegisterHostcall(p, hcRestore, &kernel.Hostcall{Name: "lz_restore", Cost: 10, Fn: l.hcRestoreFn})
	k.RegisterHostcall(p, hcEnter, &kernel.Hostcall{Name: "lz_enter", Cost: 12, Fn: l.hcEnterFn})

	// Trampoline at 0 with PKU-XOM (same construction as zpoline, and
	// the same absence of an execution check: P4a). The PKRU is set
	// directly, without a WRPKRU stub.
	key, err := interpose.MapTrampoline(ih, ih.Sym("lz_tramp"))
	if err != nil {
		return err
	}
	t.Core.PKRU = t.Core.PKRU.DenyAccess(int(key))
	return sud.Arm(ih, ih.Sym("lz_handler"), ih.Sym("lz_selector"), true)
}

// hcSigsysFn handles a SIGSYS: stage the lazy rewrite of the trapped
// site, then service the call.
func (l *Lazypoline) hcSigsysFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	tr, err := sud.Decode(k, t)
	if err != nil {
		return err
	}
	st.stats.SUD++
	interpose.Observe(&tr.Call)

	// Stage the rewrite. lazypoline rewrites whatever site trapped; the
	// CPU decoded 0F 05 there, but that says nothing about whether it
	// is code or data reached by a hijacked jump (P3b).
	if err := l.stageRewrite(k, t, st, tr.Site); err != nil {
		return err
	}
	return tr.Complete(l.Config.Hook, st.gate, nil)
}

// stageRewrite makes the page writable and fills the scratch block the
// guest handler consumes. The write itself happens in guest code as two
// separate byte stores (the P5 tearing window).
func (l *Lazypoline) stageRewrite(k *kernel.Kernel, t *kernel.Thread, st *state, site uint64) error {
	as := t.Proc.AS
	clearScratch := func() error { return as.KStoreU64(st.scratchAddr, 0) }

	if st.rewritten[site] {
		return clearScratch()
	}
	perm, _, ok := as.PermAt(site)
	if !ok || perm&mem.PermExec == 0 {
		return clearScratch()
	}
	genuine := st.truth[site]
	if !genuine {
		// Corruption: the trapped bytes were data or a partial
		// instruction (diagnostic accounting and audit stream only).
		st.stats.Corruptions++
	}
	// mprotect the page RWX through the allowlisted gate. The original
	// permission is NOT saved — restoration later assumes RX (P5).
	pageAddr := mem.PageBase(site)
	span := site + uint64(cpu.SyscallInstLen) - pageAddr
	if _, err := st.gate.Exec(k, t, kernel.SysMprotect,
		[6]uint64{pageAddr, span, kernel.ProtRead | kernel.ProtWrite | kernel.ProtExec}); err != nil {
		return err
	}
	clobber := perm != mem.PermRX
	if clobber {
		st.stats.PermClobbers++
	}
	st.rewritten[site] = true
	st.stats.Sites = len(st.rewritten)
	if k.Tracing() {
		detail := "genuine"
		if !genuine {
			detail = "misidentified"
		}
		if clobber {
			detail += ",perm-clobber"
		}
		k.EmitRewrite(t, site, detail)
	}

	if err := as.KStoreU64(st.scratchAddr, site); err != nil {
		return err
	}
	if err := as.KStoreU64(st.scratchAddr+8, uint64(cpu.CallRaxBytes[0])); err != nil {
		return err
	}
	return as.KStoreU64(st.scratchAddr+16, uint64(cpu.CallRaxBytes[1]))
}

// hcRestoreFn "restores" the rewritten page's permissions — to the
// assumed RX, not the saved original (the P5 flaw; JIT RWX pages and XOM
// pages come out wrong).
func (l *Lazypoline) hcRestoreFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	site, err := t.Proc.AS.KLoadU64(st.scratchAddr)
	if err != nil || site == 0 {
		return err
	}
	pageAddr := mem.PageBase(site)
	span := site + uint64(cpu.SyscallInstLen) - pageAddr
	_, err = st.gate.Exec(k, t, kernel.SysMprotect,
		[6]uint64{pageAddr, span, kernel.ProtRead | kernel.ProtExec})
	if err != nil {
		return err
	}
	return t.Proc.AS.KStoreU64(st.scratchAddr, 0)
}

// hcEnterFn is the fast-path (rewritten site) entry: the shared hook
// step. No NULL-exec check exists (P4a).
func (l *Lazypoline) hcEnterFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	ctx := &t.Core.Ctx
	retAddr, err := t.Proc.AS.KLoadU64(ctx.R[cpu.RSP] + 16)
	if err != nil {
		return err
	}
	site := retAddr - uint64(cpu.CallRegInstLen)
	k.EmitPhase(t, kernel.PhHandler, ctx.R[cpu.RAX], site, interpose.MechRewrite.String())
	st.stats.Rewritten++

	call := interpose.NewCall(k, t, interpose.MechRewrite, ctx.R[cpu.RAX], site, ctx)
	interpose.Observe(&call)
	interpose.Trampoline(&call, l.Config.Hook, ctx, retAddr, nil)
	return nil
}
