// Package loader implements the dynamic linker/loader of the simulated
// platform: it maps executables and their shared-library dependencies,
// honours LD_PRELOAD, issues the (surprisingly many) startup system calls
// a real ld.so performs before any injected library can interpose,
// provides the vdso, applies relocations, runs initializers in dependency
// order, and services execve and dlopen/dlmopen.
//
// The startup syscalls are issued as genuine guest SYSCALL executions
// through a gate stub in the mapped ld.so image, so every interposition
// mechanism observes (or misses) them exactly as it would on Linux —
// which is the substance of pitfall P2b.
package loader

import (
	"fmt"
	"strings"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/mem"
)

// Well-known paths.
const (
	LdsoPath  = "/lib64/ld-linux-x86-64.so.2"
	VdsoName  = "[vdso]"
	VvarName  = "[vvar]"
	StackName = "[stack]"
)

// LdPreloadVar is the environment variable consulted for preloads.
const LdPreloadVar = "LD_PRELOAD"

// Layout constants.
const (
	stackTop   = 0x7ffd_0000_0000
	stackSize  = 64 * mem.PageSize
	ldsoBase   = 0x7f7f_0000_0000
	vdsoBase   = 0x7f7e_0000_0000
	vvarBase   = 0x7f7e_0001_0000
	imageBase  = 0x0000_5500_0000 // first image; subsequent ones stack upward
	imageSlide = 0x0000_0100_0000 // gap between images
)

// LoadedImage describes one mapped image in a process.
type LoadedImage struct {
	Image *image.Image
	Base  uint64
	// Private marks dlmopen-style namespace isolation: exported symbols
	// do not join the global namespace (used by interposer libraries to
	// avoid recursive redirection, paper §5.3).
	Private bool
}

// procState is the loader's per-process bookkeeping, stored in
// kernel.Process.LoaderState.
type procState struct {
	loaded   []*LoadedImage
	globals  map[string]uint64 // exported symbol -> absolute address
	ldso     uint64            // ld.so base
	gate     uint64            // address of the ld.so syscall gate
	nextBase uint64
	aslr     uint64 // per-process ASLR PRNG state (0 = disabled)
	// StartupSyscalls counts syscalls issued before the first
	// LD_PRELOAD initializer ran (the P2b blind spot).
	StartupSyscalls int
}

// nextASLR steps the per-process slide PRNG (splitmix64).
func (st *procState) nextASLR() uint64 {
	st.aslr += 0x9E3779B97F4A7C15
	z := st.aslr
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// advanceBase moves nextBase past an image, adding a randomized gap when
// ASLR is enabled.
func (st *procState) advanceBase() {
	st.nextBase += imageSlide
	if st.aslr != 0 {
		st.nextBase += (st.nextASLR() & 0xFF) << mem.PageShift
	}
}

// Loader binds a kernel to an image registry.
type Loader struct {
	K   *kernel.Kernel
	Reg *image.Registry

	// ASLRSeed, when non-zero, randomizes per-process image load bases
	// (deterministically, derived from seed and pid). Region-relative
	// offsets stay stable across runs — the property K23's offline logs
	// rely on (paper §5.1).
	ASLRSeed uint64

	ldso *image.Image
	vdso *image.Image
}

// New creates a loader, installs its execve handler on the kernel, and
// registers the ld.so and vdso images.
func New(k *kernel.Kernel, reg *image.Registry) *Loader {
	l := &Loader{K: k, Reg: reg}
	l.ldso = buildLdso()
	l.vdso = buildVdso()
	reg.MustAdd(l.ldso)
	k.Exec = l.execve
	return l
}

// buildLdso assembles the dynamic linker image: a syscall gate used to
// issue startup syscalls from real, mapped SYSCALL instruction sites.
func buildLdso() *image.Image {
	b := asm.NewBuilder(LdsoPath)
	t := b.Text()
	// ldso_syscall(nr, a0..a4): shift the CallGuest argument registers
	// into the syscall ABI and trap.
	t.Label("ldso_syscall")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Mov(cpu.RDI, cpu.RSI)
	t.Mov(cpu.RSI, cpu.RDX)
	t.Mov(cpu.RDX, cpu.R10)
	t.Mov(cpu.R10, cpu.R8)
	t.Mov(cpu.R8, cpu.R9)
	t.Xor(cpu.R9, cpu.R9)
	t.Label("ldso_syscall_insn")
	t.Syscall()
	t.Ret()
	return b.MustBuild()
}

// buildVdso assembles the vdso: gettimeofday/clock_gettime that read the
// vvar page entirely in user space — no SYSCALL instruction, which is why
// vdso calls are invisible to every syscall-instruction interposer
// (pitfall P2b).
func buildVdso() *image.Image {
	b := asm.NewBuilder(VdsoName)
	t := b.Text()
	emit := func(name string) {
		t.Label(name)
		// RDI: output struct {sec u64, nsec u64}
		t.MovImmSym(cpu.R11, "__vvar_base")
		t.Load(cpu.RAX, cpu.R11, 0)
		t.Store(cpu.RDI, 0, cpu.RAX)
		t.Load(cpu.RAX, cpu.R11, 8)
		t.Store(cpu.RDI, 8, cpu.RAX)
		t.Xor(cpu.RAX, cpu.RAX)
		t.Ret()
	}
	emit("__vdso_gettimeofday")
	emit("__vdso_clock_gettime")
	return b.MustBuild()
}

// SpawnOption configures Spawn.
type SpawnOption func(*spawnConfig)

type spawnConfig struct {
	tracer      kernel.Tracer
	disableVDSO bool
	preInit     func(p *kernel.Process, t *kernel.Thread) error
}

// WithTracer attaches a tracer before the first instruction runs — the
// only interposition point that observes the whole startup (paper §5.2).
func WithTracer(tr kernel.Tracer) SpawnOption {
	return func(c *spawnConfig) { c.tracer = tr }
}

// WithDisableVDSO prevents the vdso from being mapped, forcing
// vdso-reachable calls through real SYSCALL instructions.
func WithDisableVDSO() SpawnOption {
	return func(c *spawnConfig) { c.disableVDSO = true }
}

// WithPreInit runs a host hook after memory setup, before startup
// syscalls.
func WithPreInit(fn func(p *kernel.Process, t *kernel.Thread) error) SpawnOption {
	return func(c *spawnConfig) { c.preInit = fn }
}

// Spawn creates a process running the binary at path.
func (l *Loader) Spawn(path string, argv, env []string, opts ...SpawnOption) (*kernel.Process, error) {
	var cfg spawnConfig
	for _, o := range opts {
		o(&cfg)
	}
	p := l.K.NewProcess(path, argv, env)
	if cfg.tracer != nil {
		if err := l.K.AttachTracer(p, cfg.tracer); err != nil {
			return nil, err
		}
	}
	if cfg.disableVDSO {
		p.VDSODisabled = true
	}
	t, err := l.setupProcess(p, path, argv, env, cfg.preInit)
	if err != nil {
		return nil, err
	}
	_ = t
	return p, nil
}

// execve implements the kernel's exec handler: replace the image of t's
// process. File descriptors survive; signal handlers, SUD state and
// loader state do not.
func (l *Loader) execve(k *kernel.Kernel, t *kernel.Thread, path string, argv, env []string) error {
	p := t.Proc
	if _, ok := l.Reg.Lookup(path); !ok {
		return fmt.Errorf("loader: execve: %s not registered", path)
	}
	// Tear down the old image: fresh address space, single thread.
	p.AS = mem.NewAddressSpace()
	p.Path = path
	p.Argv = append([]string(nil), argv...)
	p.Env = append([]string(nil), env...)
	p.Stdout = nil
	p.Stderr = nil
	p.Hostcalls = map[int32]*kernel.Hostcall{}
	p.LoaderState = nil
	p.Interposer = nil
	p.ResetSignalHandlers()
	keep := t
	for _, th := range p.Threads {
		if th != keep {
			th.State = kernel.ThreadExited
		}
	}
	p.Threads = []*kernel.Thread{keep}
	keep.State = kernel.ThreadRunnable
	keep.Rebind()
	keep.ClearSUD()

	_, err := l.setupProcessOnThread(p, keep, path, argv, env, nil)
	return err
}

// setupProcess builds the initial memory image and main thread.
func (l *Loader) setupProcess(p *kernel.Process, path string, argv, env []string,
	preInit func(*kernel.Process, *kernel.Thread) error) (*kernel.Thread, error) {
	t := l.K.NewThread(p, cpu.Context{})
	return l.setupProcessOnThread(p, t, path, argv, env, preInit)
}

func (l *Loader) setupProcessOnThread(p *kernel.Process, t *kernel.Thread, path string,
	argv, env []string, preInit func(*kernel.Process, *kernel.Thread) error) (*kernel.Thread, error) {
	main, ok := l.Reg.Lookup(path)
	if !ok {
		return nil, fmt.Errorf("loader: no binary registered at %s", path)
	}

	st := &procState{globals: make(map[string]uint64), nextBase: imageBase}
	if l.ASLRSeed != 0 {
		st.aslr = l.ASLRSeed*0x9E3779B97F4A7C15 ^ uint64(p.PID)*0xBF58476D1CE4E5B9
		st.nextBase = imageBase + (st.nextASLR()&0xFFFF)<<mem.PageShift
	}
	p.LoaderState = st
	l.registerLoaderHostcalls(p)

	// Stack.
	if err := p.AS.Map(stackTop-stackSize, stackSize, mem.PermRW, StackName); err != nil {
		return nil, err
	}

	// ld.so.
	if err := l.mapImage(p, st, l.ldso, ldsoBase, false); err != nil {
		return nil, err
	}
	st.ldso = ldsoBase
	gate, _ := l.ldso.SymbolOff("ldso_syscall")
	st.gate = ldsoBase + gate

	// vdso + vvar.
	if !p.VDSODisabled {
		if err := p.AS.Map(vvarBase, mem.PageSize, mem.PermRead, VvarName); err != nil {
			return nil, err
		}
		st.globals["__vvar_base"] = vvarBase
		if err := l.mapImage(p, st, l.vdso, vdsoBase, false); err != nil {
			return nil, err
		}
		l.K.RegisterVvar(p, vvarBase)
		l.K.EmitVdso(p, "mapped")
	} else {
		l.K.EmitVdso(p, "disabled")
	}

	// Thread bootstrap context: stack pointer only; RIP set at the end.
	t.Core.Ctx = cpu.Context{}
	t.Core.Ctx.R[cpu.RSP] = stackTop - 4096

	if preInit != nil {
		if err := preInit(p, t); err != nil {
			return nil, err
		}
	}

	// ---- Dynamic linker startup (all observable as real syscalls) ----
	sc := func(nr uint64, args ...uint64) uint64 {
		var a [6]uint64
		a[0] = nr
		copy(a[1:], args)
		ret, err := l.K.CallGuest(t, st.gate, a)
		if err != nil {
			// Loader syscall failures surface as process death later;
			// record and continue (matches ld.so's tolerance of ENOENT
			// probes).
			return ^uint64(0)
		}
		st.StartupSyscalls++
		return ret
	}
	scratch := uint64(stackTop) - 2048 // scratch buffer in the stack region

	sc(kernel.SysAccess, l.strArg(p, scratch, "/etc/ld.so.preload"))
	sc(kernel.SysOpenat, 0xffffff9c, l.strArg(p, scratch, "/etc/ld.so.cache"), 0)
	sc(kernel.SysFstat, 3, scratch+512)
	cacheMap := sc(kernel.SysMmap, 0, 8192, kernel.ProtRead, 0)
	sc(kernel.SysClose, 3)

	// Resolve the load set: LD_PRELOAD entries first, then the main
	// binary's dependency closure (depth-first, deps before dependents).
	var loadSet []*image.Image
	seen := map[string]bool{LdsoPath: true, VdsoName: true}
	var add func(path string, preload bool) error
	add = func(path string, preload bool) error {
		if seen[path] {
			return nil
		}
		img, ok := l.Reg.Lookup(path)
		if !ok {
			if preload {
				return nil // silently skipped, like ld.so
			}
			return fmt.Errorf("loader: missing dependency %s", path)
		}
		seen[path] = true
		for _, dep := range img.Needed {
			if err := add(dep, false); err != nil {
				return err
			}
		}
		loadSet = append(loadSet, img)
		return nil
	}
	if preloads, ok := kernel.GetEnv(env, LdPreloadVar); ok {
		for _, entry := range splitPreload(preloads) {
			if img, ok := l.Reg.Lookup(entry); ok {
				// Load the preload's deps first, then the preload.
				for _, dep := range img.Needed {
					if err := add(dep, false); err != nil {
						return nil, err
					}
				}
			}
			if err := add(entry, true); err != nil {
				return nil, err
			}
		}
	}
	for _, dep := range main.Needed {
		if err := add(dep, false); err != nil {
			return nil, err
		}
	}
	loadSet = append(loadSet, main)

	// Map each image, issuing the ld.so-style syscall trail.
	for _, img := range loadSet {
		base := st.nextBase
		st.advanceBase()
		sc(kernel.SysOpenat, 0xffffff9c, l.strArg(p, scratch, img.Path), 0)
		sc(kernel.SysRead, 3, scratch+512, 832) // ELF header + phdrs
		sc(kernel.SysFstat, 3, scratch+512)
		for range img.Sections {
			sc(kernel.SysMmap, 0, mem.PageSize, kernel.ProtRead, 0)
		}
		sc(kernel.SysClose, 3)
		if err := l.mapImage(p, st, img, base, false); err != nil {
			return nil, err
		}
		// RELRO-style mprotect: real ld.so re-protects each image's
		// GOT page. Our images have no GOT; issue the call against the
		// image's data section when present so the syscall trail (and
		// count) matches, without touching text permissions.
		if ds, ok := img.Section(".data"); ok {
			sc(kernel.SysMprotect, base+ds.Off, mem.PageSize, kernel.ProtRead|kernel.ProtWrite)
		} else {
			sc(kernel.SysMprotect, stackTop-stackSize, mem.PageSize, kernel.ProtRead|kernel.ProtWrite)
		}
	}

	// Relocate everything now that the full symbol table exists.
	for _, li := range st.loaded {
		if err := l.relocate(p, st, li); err != nil {
			return nil, err
		}
	}

	sc(kernel.SysArchPrctl, 0x1002, scratch) // ARCH_SET_FS
	sc(kernel.SysMunmap, cacheMap, 8192)

	// Run initializers in reverse-link-map order, as ld.so does:
	// dependencies precede dependents, and LD_PRELOAD libraries —
	// early in the link map — initialize LAST. An injected interposer
	// therefore misses not only the loader's own syscalls but every
	// other library constructor too (pitfall P2b).
	preloadSet := map[string]bool{}
	if preloads, ok := kernel.GetEnv(env, LdPreloadVar); ok {
		for _, entry := range splitPreload(preloads) {
			preloadSet[entry] = true
		}
	}
	ordered := make([]*LoadedImage, 0, len(st.loaded))
	for _, li := range st.loaded {
		if !preloadSet[li.Image.Path] {
			ordered = append(ordered, li)
		}
	}
	for _, li := range st.loaded {
		if preloadSet[li.Image.Path] {
			ordered = append(ordered, li)
		}
	}
	for _, li := range ordered {
		if li.Image == l.ldso || li.Image == l.vdso {
			continue
		}
		if li.Image.InitHost != nil {
			if err := li.Image.InitHost(&InitHandle{L: l, P: p, T: t, St: st, Li: li}, li.Base); err != nil {
				return nil, fmt.Errorf("loader: init of %s: %w", li.Image.Path, err)
			}
		}
		if li.Image.InitSymbol != "" {
			off, ok := li.Image.SymbolOff(li.Image.InitSymbol)
			if !ok {
				return nil, fmt.Errorf("loader: %s: missing init symbol %s", li.Image.Path, li.Image.InitSymbol)
			}
			if _, err := l.K.CallGuest(t, li.Base+off, [6]uint64{}); err != nil {
				return nil, fmt.Errorf("loader: guest init of %s: %w", li.Image.Path, err)
			}
		}
	}

	// Build argv/env on the stack and enter the program.
	argc, argvAddr, envAddr, rsp := l.buildStartStack(p, argv, env)
	ctx := &t.Core.Ctx
	ctx.R[cpu.RDI] = argc
	ctx.R[cpu.RSI] = argvAddr
	ctx.R[cpu.RDX] = envAddr
	ctx.R[cpu.RSP] = rsp
	mainLI := st.loaded[len(st.loaded)-1]
	ctx.RIP = mainLI.Base + main.Entry
	t.Core.FlushICache()
	return t, nil
}

// strArg writes a NUL-terminated string into guest scratch memory and
// returns its address.
func (l *Loader) strArg(p *kernel.Process, scratch uint64, s string) uint64 {
	b := append([]byte(s), 0)
	if err := p.AS.KStore(scratch, b); err != nil {
		return scratch
	}
	return scratch
}

// splitPreload splits an LD_PRELOAD value on colons and spaces.
func splitPreload(v string) []string {
	fields := strings.FieldsFunc(v, func(r rune) bool { return r == ':' || r == ' ' })
	out := fields[:0]
	for _, f := range fields {
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// mapImage maps img at base and registers its exported symbols.
func (l *Loader) mapImage(p *kernel.Process, st *procState, img *image.Image, base uint64, private bool) error {
	for _, s := range img.Sections {
		if err := p.AS.Map(base+s.Off, s.Size, s.Perm, img.Path); err != nil {
			return err
		}
		if len(s.Data) > 0 {
			if err := p.AS.KStore(base+s.Off, s.Data); err != nil {
				return err
			}
		}
	}
	li := &LoadedImage{Image: img, Base: base, Private: private}
	st.loaded = append(st.loaded, li)
	if !private {
		for name, off := range img.Symbols {
			if !asm.IsExported(name) {
				continue
			}
			if _, dup := st.globals[name]; !dup {
				st.globals[name] = base + off
			}
		}
	}
	return nil
}

// relocate applies img's load-time relocations: own symbols first, then
// the global namespace. Symbols prefixed "__vdso_" are weak: unresolved
// references patch to zero so callers can test and fall back.
func (l *Loader) relocate(p *kernel.Process, st *procState, li *LoadedImage) error {
	for _, r := range li.Image.Relocs {
		var addr uint64
		if off, ok := li.Image.SymbolOff(r.Symbol); ok {
			addr = li.Base + off
		} else if g, ok := st.globals[r.Symbol]; ok {
			addr = g
		} else if strings.HasPrefix(r.Symbol, "__vdso_") || strings.HasPrefix(r.Symbol, "__vvar") {
			addr = 0
		} else {
			return fmt.Errorf("loader: %s: undefined symbol %q", li.Image.Path, r.Symbol)
		}
		if err := p.AS.KStoreU64(li.Base+r.Off, uint64(int64(addr)+r.Addend)); err != nil {
			return err
		}
	}
	return nil
}

// buildStartStack lays out argv/env strings and pointer arrays.
func (l *Loader) buildStartStack(p *kernel.Process, argv, env []string) (argc, argvAddr, envAddr, rsp uint64) {
	cur := uint64(stackTop - 16)
	writeStr := func(s string) uint64 {
		b := append([]byte(s), 0)
		cur -= uint64(len(b))
		_ = p.AS.KStore(cur, b)
		return cur
	}
	argPtrs := make([]uint64, len(argv))
	for i, a := range argv {
		argPtrs[i] = writeStr(a)
	}
	envPtrs := make([]uint64, len(env))
	for i, e := range env {
		envPtrs[i] = writeStr(e)
	}
	cur &^= 7
	writeVec := func(ptrs []uint64) uint64 {
		cur -= uint64(8 * (len(ptrs) + 1))
		base := cur
		for i, ptr := range ptrs {
			_ = p.AS.KStoreU64(base+uint64(8*i), ptr)
		}
		_ = p.AS.KStoreU64(base+uint64(8*len(ptrs)), 0)
		return base
	}
	envAddr = writeVec(envPtrs)
	argvAddr = writeVec(argPtrs)
	rsp = (cur - 64) &^ 15
	return uint64(len(argv)), argvAddr, envAddr, rsp
}

// registerLoaderHostcalls installs the dlopen/dlmopen hostcalls backing
// libc's guest-visible stubs.
func (l *Loader) registerLoaderHostcalls(p *kernel.Process) {
	open := func(private bool) func(k *kernel.Kernel, t *kernel.Thread) error {
		return func(k *kernel.Kernel, t *kernel.Thread) error {
			path, err := t.Proc.AS.KLoadString(t.Core.Ctx.R[cpu.RDI], 4096)
			if err != nil {
				t.Core.Ctx.R[cpu.RAX] = 0
				return nil
			}
			li, err := l.Dlopen(t, path, private)
			if err != nil {
				t.Core.Ctx.R[cpu.RAX] = 0
				return nil
			}
			t.Core.Ctx.R[cpu.RAX] = li.Base
			return nil
		}
	}
	k := l.K
	k.RegisterHostcall(p, kernel.HostcallDlopen, &kernel.Hostcall{
		Name: "dlopen", Cost: 2000, Fn: open(false),
	})
	k.RegisterHostcall(p, kernel.HostcallDlmopen, &kernel.Hostcall{
		Name: "dlmopen", Cost: 2000, Fn: open(true),
	})
	k.RegisterHostcall(p, kernel.HostcallDlsym, &kernel.Hostcall{
		Name: "dlsym", Cost: 300,
		Fn: func(k *kernel.Kernel, t *kernel.Thread) error {
			name, err := t.Proc.AS.KLoadString(t.Core.Ctx.R[cpu.RDI], 4096)
			if err != nil {
				t.Core.Ctx.R[cpu.RAX] = 0
				return nil
			}
			addr, _ := l.GlobalSymbol(t.Proc, name)
			t.Core.Ctx.R[cpu.RAX] = addr
			return nil
		},
	})
}

// InitHandle is passed to image InitHost hooks.
type InitHandle struct {
	L  *Loader
	P  *kernel.Process
	T  *kernel.Thread
	St *procState
	Li *LoadedImage
}

// Sys makes syscall nr through the ld.so syscall gate (a real SYSCALL
// site) on the init thread. Under chaos injection the gate's syscalls
// can fail with EINTR, EAGAIN, ENOMEM or EMFILE; like the libc
// wrappers, Sys repeats a call that failed transiently, at most 64
// times.
func (h *InitHandle) Sys(nr uint64, args ...uint64) (uint64, error) {
	a := [6]uint64{nr}
	copy(a[1:], args)
	for tries := 0; ; tries++ {
		ret, err := h.L.K.CallGuestInfra(h.T, h.St.gate, a)
		if err != nil {
			return ret, err
		}
		if e, bad := kernel.IsErr(ret); bad && kernel.IsTransient(e) && tries < 64 {
			continue
		}
		return ret, nil
	}
}

// Loaded lists the images currently mapped in the process.
func (l *Loader) Loaded(p *kernel.Process) []*LoadedImage {
	st, ok := p.LoaderState.(*procState)
	if !ok {
		return nil
	}
	return append([]*LoadedImage(nil), st.loaded...)
}

// StartupSyscalls reports how many syscalls the loader issued before any
// LD_PRELOAD initializer ran (the P2b blind-spot size).
func (l *Loader) StartupSyscalls(p *kernel.Process) int {
	st, ok := p.LoaderState.(*procState)
	if !ok {
		return 0
	}
	return st.StartupSyscalls
}

// TrueSites returns the absolute addresses of every ground-truth
// SYSCALL/SYSENTER instruction across p's loaded images. Diagnostic use
// only (corruption/misidentification accounting in pitfall experiments).
func (l *Loader) TrueSites(p *kernel.Process) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, li := range l.Loaded(p) {
		for _, off := range li.Image.TrueSites {
			out[li.Base+off] = true
		}
	}
	return out
}

// GlobalSymbol resolves an exported symbol in p's global namespace.
func (l *Loader) GlobalSymbol(p *kernel.Process, name string) (uint64, bool) {
	st, ok := p.LoaderState.(*procState)
	if !ok {
		return 0, false
	}
	addr, ok := st.globals[name]
	return addr, ok
}

// Dlopen maps the image at path (and unmet dependencies) into the running
// process, issuing the same syscall trail ld.so would, and runs its
// initializers. Private selects dlmopen-style namespace isolation.
func (l *Loader) Dlopen(t *kernel.Thread, path string, private bool) (*LoadedImage, error) {
	p := t.Proc
	st, ok := p.LoaderState.(*procState)
	if !ok {
		return nil, fmt.Errorf("loader: process %d has no loader state", p.PID)
	}
	for _, li := range st.loaded {
		if li.Image.Path == path {
			return li, nil
		}
	}
	img, ok := l.Reg.Lookup(path)
	if !ok {
		return nil, fmt.Errorf("loader: dlopen: %s not registered", path)
	}
	for _, dep := range img.Needed {
		if _, err := l.Dlopen(t, dep, private); err != nil {
			return nil, err
		}
	}
	scratch := uint64(stackTop) - 2048
	sc := func(nr uint64, args ...uint64) {
		var a [6]uint64
		a[0] = nr
		copy(a[1:], args)
		_, _ = l.K.CallGuest(t, st.gate, a)
	}
	sc(kernel.SysOpenat, 0xffffff9c, l.strArg(p, scratch, path), 0)
	sc(kernel.SysRead, 3, scratch+512, 832)
	sc(kernel.SysMmap, 0, mem.PageSize, kernel.ProtRead, 0)
	sc(kernel.SysClose, 3)

	base := st.nextBase
	st.advanceBase()
	if err := l.mapImage(p, st, img, base, private); err != nil {
		return nil, err
	}
	li := st.loaded[len(st.loaded)-1]
	if err := l.relocate(p, st, li); err != nil {
		return nil, err
	}
	if img.InitHost != nil {
		if err := img.InitHost(&InitHandle{L: l, P: p, T: t, St: st, Li: li}, base); err != nil {
			return nil, err
		}
	}
	if img.InitSymbol != "" {
		off, _ := img.SymbolOff(img.InitSymbol)
		if _, err := l.K.CallGuest(t, base+off, [6]uint64{}); err != nil {
			return nil, err
		}
	}
	return li, nil
}
