// Package zpoline reimplements the zpoline interposer (Yasukata et al.,
// USENIX ATC'23) on the simulated platform: load-time static disassembly
// locates SYSCALL/SYSENTER instructions, each is rewritten to the
// size-preserving `callq *%rax` (FF D0), and a nop-sled trampoline mapped
// at virtual address 0 routes the call — the syscall number in RAX *is*
// the landing offset — into the handler.
//
// Faithfully reproduced properties (pitfall matrix, Table 3):
//   - LD_PRELOAD-based injection: bypassable via environment scrubbing
//     (P1a fails).
//   - One-shot load-time rewriting: code generated or loaded later, and
//     anything linear-sweep disassembly mislabels, is missed or corrupted
//     (P2a, P3a fail); startup and vdso calls are missed (P2b fails).
//   - Page permissions are saved and restored around rewriting, and the
//     single rewriting step precedes any application concurrency, so the
//     runtime-rewriting pitfalls do not apply (P5 passes).
//   - The -ultra variant validates every trampoline entry against an
//     address-space bitmap (P4a passes) whose reserved footprint is the
//     P4b memory cost; the -default variant omits the check.
package zpoline

import (
	"fmt"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/disasm"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
	"k23/internal/mem"
)

// Hostcall id of the zpoline handler's host logic.
const hcEnter int32 = 100

// Trampoline geometry: the sled covers syscall numbers 0..511, the
// handler springboard sits at offset 512 (as in the original, which
// supports numbers below ~500).
const (
	TrampolineSize = 512
	MaxSyscallNum  = TrampolineSize - 1
)

// Zpoline is the Launcher for zpoline-style interposition.
type Zpoline struct {
	Config interpose.Config
	img    *image.Image
}

// New returns a zpoline launcher with the given configuration.
func New(cfg interpose.Config) *Zpoline {
	z := &Zpoline{Config: cfg}
	z.img = z.buildLibrary()
	return z
}

// Name implements interpose.Launcher.
func (z *Zpoline) Name() string {
	if z.Config.NullExecCheck {
		return "zpoline-ultra"
	}
	return "zpoline-default"
}

// LibraryPath is where the interposition library lives.
func (z *Zpoline) LibraryPath() string { return "/usr/lib/libzpoline.so" }

// state is the per-process interposer state.
type state struct {
	stats  interpose.Stats
	sites  map[uint64]bool
	truth  map[uint64]bool // ground-truth sites (diagnostics only)
	bitmap *Bitmap
}

// stateOf extracts the per-process state.
func stateOf(p *kernel.Process) (*state, error) {
	st, ok := p.Interposer.(*state)
	if !ok {
		return nil, fmt.Errorf("zpoline: process %d not interposed", p.PID)
	}
	return st, nil
}

// Launch implements interpose.Launcher.
func (z *Zpoline) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	if _, ok := w.Reg.Lookup(z.LibraryPath()); !ok {
		w.Reg.MustAdd(z.img)
	}
	env = kernel.SetEnv(append([]string(nil), env...), loader.LdPreloadVar, z.LibraryPath())
	return w.L.Spawn(path, argv, env)
}

// Stats implements interpose.Launcher.
func (z *Zpoline) Stats(p *kernel.Process) *interpose.Stats {
	st, err := stateOf(p)
	if err != nil {
		return &interpose.Stats{}
	}
	return &st.stats
}

var _ interpose.Launcher = (*Zpoline)(nil)

// buildLibrary assembles libzpoline.so: the handler the trampoline jumps
// into, plus a WRPKRU stub. The heavyweight init logic runs as an
// InitHost hook issuing real guest syscalls.
func (z *Zpoline) buildLibrary() *image.Image {
	b := asm.NewBuilder(z.LibraryPath())
	b.Needed(libc.Path)
	t := b.Text()

	// zp_handler: reached via trampoline springboard. App state: RAX =
	// syscall number, args in the syscall registers, return address on
	// the stack. zpoline preserves RCX/R11 across the handler (K23
	// later shaves these 4 instructions off, §6.2.1).
	t.Label("zp_handler")
	t.Push(cpu.RCX)
	t.Push(cpu.R11)
	t.Hostcall(hcEnter) // may abort (ultra); sets R11=1 to request skip
	t.Test(cpu.R11, cpu.R11)
	t.Jnz(".zp_skip")
	t.Label(".zp_syscall_site")
	t.Syscall() // the real system call, from interposer-owned code
	t.Label(".zp_skip")
	t.Pop(cpu.R11)
	t.Pop(cpu.RCX)
	t.Ret()

	// zp_set_pkru(value): load the PKRU from RDI.
	t.Label("zp_set_pkru")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Wrpkru()
	t.Ret()

	b.InitHost(z.initHost)
	return b.MustBuild()
}

// initHost is the library constructor: map the trampoline, protect it
// with PKU-XOM, disassemble the loaded code, rewrite the found sites.
func (z *Zpoline) initHost(h any, base uint64) error {
	ih, ok := h.(*loader.InitHandle)
	if !ok {
		return fmt.Errorf("zpoline: unexpected init handle %T", h)
	}
	k, p, t := ih.L.K, ih.P, ih.T

	st := &state{sites: make(map[uint64]bool)}
	if z.Config.NullExecCheck {
		st.bitmap = NewBitmap()
	}
	p.Interposer = st

	handlerOff, _ := z.img.SymbolOff("zp_handler")
	k.RegisterHostcall(p, hcEnter, &kernel.Hostcall{Name: "zp_enter", Cost: 13, Fn: z.hcEnterFn})

	// 1. Map the trampoline page at virtual address 0.
	ret, err := ih.Sys(kernel.SysMmap, 0, mem.PageSize,
		kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec, kernel.MapFixed)
	if err != nil {
		return fmt.Errorf("zpoline: trampoline mmap: %w", err)
	}
	if ret != 0 {
		return fmt.Errorf("zpoline: trampoline mmap landed at %#x", ret)
	}

	// 2. Write the nop sled and springboard.
	tramp := make([]byte, 0, TrampolineSize+12)
	for i := 0; i < TrampolineSize; i++ {
		tramp = append(tramp, cpu.ByteNop)
	}
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpMovImm, A: cpu.R11, Imm: int64(base + handlerOff)})...)
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpJmpReg, A: cpu.R11})...)
	if err := t.Core.StoreAsSelf(0, tramp); err != nil {
		return fmt.Errorf("zpoline: trampoline write: %w", err)
	}

	// 3. PKU-XOM: allocate a key, tag the page, deny data access in
	// PKRU. Instruction fetches are unaffected — faithful PKU
	// semantics, and the root cause of P4a in checkless variants.
	key, err := ih.Sys(kernel.SysPkeyAlloc)
	if err != nil {
		return err
	}
	if _, err := ih.Sys(kernel.SysPkeyMprotect, 0, mem.PageSize,
		kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec, key); err != nil {
		return err
	}
	setPkruOff, _ := z.img.SymbolOff("zp_set_pkru")
	pkru := uint64(mem.PKRU(0).DenyAccess(int(key)))
	if _, err := k.CallGuest(t, base+setPkruOff, [6]uint64{pkru}); err != nil {
		return err
	}

	// 4. Static disassembly + one-shot rewrite of everything executable
	// that is already loaded — and nothing that arrives later (P2a).
	st.truth = ih.L.TrueSites(p)
	return z.rewriteLoadedCode(ih, st)
}

// rewriteLoadedCode linear-sweeps every executable region except the
// interposer's own and rewrites each identified site.
func (z *Zpoline) rewriteLoadedCode(ih *loader.InitHandle, st *state) error {
	k, p := ih.L.K, ih.P
	for _, r := range p.AS.Regions() {
		if r.Perm&mem.PermExec == 0 {
			continue
		}
		switch r.Name {
		case z.LibraryPath(), loader.VdsoName:
			continue
		}
		if r.Start == 0 {
			continue // the trampoline itself
		}
		code, err := p.AS.KLoad(r.Start, int(r.Size()))
		if err != nil {
			continue
		}
		res := disasm.LinearSweep(code, r.Start)
		for _, site := range res.Sites {
			if err := z.rewriteSite(ih, st, site.Addr); err != nil {
				return err
			}
		}
	}
	st.stats.Sites = len(st.sites)
	if st.bitmap != nil {
		st.stats.MemReservedBytes = st.bitmap.ReservedBytes()
		st.stats.MemResidentBytes = st.bitmap.ResidentBytes()
		k.EmitGuardMem(p, "bitmap", st.stats.MemReservedBytes, st.stats.MemResidentBytes)
	}
	return nil
}

// rewriteSite replaces the two bytes at addr with `callq *%rax`,
// preserving page permissions around the write (zpoline does this
// properly; P5 does not apply to load-time rewriting).
func (z *Zpoline) rewriteSite(ih *loader.InitHandle, st *state, addr uint64) error {
	k, p, t := ih.L.K, ih.P, ih.T
	if _, err := p.AS.KLoad(addr, 2); err != nil {
		return nil
	}
	genuine := st.truth[addr]
	if !genuine {
		// Static disassembly desync: zpoline cannot tell that this is
		// embedded data or a partial instruction — it rewrites anyway,
		// corrupting code or data (P3a). The ground-truth set (which
		// zpoline does not have in reality) only feeds this damage
		// counter and the audit stream, never behaviour.
		st.stats.Corruptions++
	}

	pageAddr := mem.PageBase(addr)
	span := addr + uint64(cpu.SyscallInstLen) - pageAddr // page-rounded by mprotect
	perm, _, okPerm := p.AS.PermAt(addr)
	if !okPerm {
		return nil
	}
	if _, err := ih.Sys(kernel.SysMprotect, pageAddr, span,
		kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec); err != nil {
		return err
	}
	if err := t.Core.StoreAsSelf(addr, cpu.CallRaxBytes); err != nil {
		return err
	}
	// Record the site before issuing further syscalls: if the rewritten
	// site is itself on the interposer's syscall path (the dynamic
	// linker's, say), the very next call below already rides the
	// trampoline and must pass the bitmap check.
	st.sites[addr] = true
	if st.bitmap != nil {
		st.bitmap.Set(addr)
	}
	if genuine {
		k.EmitRewrite(t, addr, "genuine")
	} else {
		k.EmitRewrite(t, addr, "misidentified")
	}
	// Restore the saved permission.
	if _, err := ih.Sys(kernel.SysMprotect, pageAddr, span, kernel.PermToProt(perm)); err != nil {
		return err
	}
	return nil
}

// hcEnterFn runs at handler entry: NULL-exec check (ultra), then the
// shared hook step.
func (z *Zpoline) hcEnterFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := stateOf(t.Proc)
	if err != nil {
		return err
	}
	ctx := &t.Core.Ctx
	// Stack: [rsp] = saved r11, [rsp+8] = saved rcx, [rsp+16] = return
	// address pushed by the rewritten call.
	retAddr, err := t.Proc.AS.KLoadU64(ctx.R[cpu.RSP] + 16)
	if err != nil {
		return fmt.Errorf("zpoline: cannot read return address: %w", err)
	}
	site := retAddr - uint64(cpu.CallRegInstLen)
	k.EmitPhase(t, kernel.PhHandler, ctx.R[cpu.RAX], site, interpose.MechRewrite.String())

	if z.Config.NullExecCheck {
		// Bitmap validation: abort unless the call originated from a
		// known rewritten site (the anti-P4a runtime check, §4.4).
		t.ExtraCycles += BitmapCheckCost
		if !st.bitmap.Get(site) {
			st.stats.NullExecAborts++
			return fmt.Errorf("zpoline: trampoline entry from unknown site %#x", site)
		}
	}

	st.stats.Rewritten++
	call := interpose.NewCall(k, t, interpose.MechRewrite, ctx.R[cpu.RAX], site, ctx)
	interpose.Observe(&call)
	interpose.Trampoline(&call, z.Config.Hook, ctx, retAddr, nil)
	return nil
}

// BitmapCheckCost is the cycle cost of one bitmap membership test
// (cheap: two shifts and a load; cf. the robin-set's ~4x cost, §6.2.1).
const BitmapCheckCost = 6
