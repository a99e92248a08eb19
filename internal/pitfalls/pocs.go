package pitfalls

import (
	"errors"
	"fmt"
	"sync"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

// PoC binary paths.
const (
	victimPath = "/poc/victim"
	execerPath = "/poc/execer"
	p1bPath    = "/poc/p1b"
	p2aPath    = "/poc/p2a"
	latePath   = "/usr/lib/late.so"
	p2bPath    = "/poc/p2b"
	p3aPath    = "/poc/p3a"
	p3bPath    = "/poc/p3b"
	p4aPath    = "/poc/p4a"
	p5jitPath  = "/poc/p5jit"
	p5mtPath   = "/poc/p5mt"
)

// pocImages is every PoC image, assembled once per process: images are
// immutable, so every world shares them.
var pocImages = sync.OnceValue(func() []*image.Image {
	var out []*image.Image
	for _, b := range []*asm.Builder{
		buildVictim(), buildExecer(), buildP1b(), buildLateLib(), buildP2a(),
		buildP2b(), buildP3a(), buildP3b(), buildP4a(), buildP5jit(), buildP5mt(),
	} {
		out = append(out, b.MustBuild())
	}
	return out
})

// registerPoCBinaries adds every PoC image to the world.
func registerPoCBinaries(w *interpose.World) {
	for _, im := range pocImages() {
		w.Reg.MustAdd(im)
	}
}

// buildVictim: five getpid calls, exit(pid & 0xff).
func buildVictim() *asm.Builder {
	b := asm.NewBuilder(victimPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.MovImm32(cpu.RBX, 5)
	t.Label(".loop")
	t.CallSym("getpid")
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".loop")
	t.Mov(cpu.RDI, cpu.RAX)
	t.CallSym("exit_group")
	return b
}

// buildExecer: Listing 1 — execve with an empty environment.
func buildExecer() *asm.Builder {
	b := asm.NewBuilder(execerPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".path").CString(victimPath)
	d.Label(".argv0").CString("victim")
	d.Label(".argv").AddrOf(".argv0").U64(0)
	d.Label(".envp").U64(0)
	t := b.Text()
	t.Label("_start")
	t.MovImmSym(cpu.RDI, ".path")
	t.MovImmSym(cpu.RSI, ".argv")
	t.MovImmSym(cpu.RDX, ".envp")
	t.CallSym("execve")
	t.MovImm32(cpu.RDI, 99)
	t.CallSym("exit_group")
	return b
}

// buildP1b: Listing 2 — two inline getpid sites around a SUD-disabling
// prctl. argv[1] "a" runs the attack; anything else is the benign path
// (both sites, no prctl).
func buildP1b() *asm.Builder {
	b := asm.NewBuilder(p1bPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R14, cpu.RSI, 8)
	t.LoadB(cpu.R14, cpu.R14, 0)
	t.Call(".siteA")
	t.CmpImm(cpu.R14, 'a')
	t.Jnz(".after_prctl")
	// prctl(PR_SET_SYSCALL_USER_DISPATCH, OFF, 0, 0, 0)
	t.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	t.MovImm32(cpu.RSI, kernel.PrSysDispatchOff)
	t.MovImm32(cpu.RDX, 0)
	t.MovImm32(cpu.R10, 0)
	t.MovImm32(cpu.R8, 0)
	t.CallSym("prctl")
	t.Label(".after_prctl")
	t.Call(".siteB")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	for _, site := range []string{".siteA", ".siteB"} {
		t.Label(site)
		t.MovImm32(cpu.RAX, kernel.SysGetpid)
		t.Syscall()
		t.Ret()
	}
	return b
}

// buildLateLib: the runtime-loaded plugin with its own syscall site.
func buildLateLib() *asm.Builder {
	b := asm.NewBuilder(latePath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("late_getpid")
	t.MovImm32(cpu.RAX, kernel.SysGetpid)
	t.Syscall()
	t.Ret()
	return b
}

// buildP2a: dlopen the plugin, dlsym, call its syscall site.
func buildP2a() *asm.Builder {
	b := asm.NewBuilder(p2aPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".plug").CString(latePath)
	d.Label(".sym").CString("late_getpid")
	t := b.Text()
	t.Label("_start")
	t.MovImmSym(cpu.RDI, ".plug")
	t.CallSym("dlopen")
	t.MovImmSym(cpu.RDI, ".sym")
	t.CallSym("dlsym")
	t.Test(cpu.RAX, cpu.RAX)
	t.Jz(".fail")
	t.CallReg(cpu.RAX)
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	t.Label(".fail")
	t.MovImm32(cpu.RDI, 1)
	t.CallSym("exit_group")
	return b
}

// buildP2b: one vdso-eligible gettimeofday.
func buildP2b() *asm.Builder {
	b := asm.NewBuilder(p2bPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".tv").Space(16)
	t := b.Text()
	t.Label("_start")
	t.MovImmSym(cpu.RDI, ".tv")
	t.CallSym("gettimeofday")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

// buildP3a: Figure 1's embedded data — a jump table blob containing the
// SYSCALL byte pattern, never executed.
func buildP3a() *asm.Builder {
	b := asm.NewBuilder(p3aPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Jmp(".after")
	t.Label("blob")
	t.Raw(0xAB, 0x0F, 0x05, 0xAB) // data resembling a SYSCALL
	t.Label(".after")
	t.CallSym("getpid")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

// buildP3b: a partial instruction — SYSCALL bytes inside a MOVIMM
// immediate. The benign path executes the MOVIMM normally; the attack
// path ("a") jumps two bytes in, executing the immediate as a SYSCALL.
func buildP3b() *asm.Builder {
	b := asm.NewBuilder(p3bPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R14, cpu.RSI, 8)
	t.LoadB(cpu.R14, cpu.R14, 0)
	t.CmpImm(cpu.R14, 'a')
	t.Jz(".attack")
	// Benign: execute the partial-instruction site as real code.
	t.Jmp("partial")
	t.Label(".attack")
	t.MovImm32(cpu.RAX, kernel.SysGetpid)
	t.MovImmSym(cpu.R11, "partial")
	t.AddImm(cpu.R11, 2) // into the immediate: the 0F 05 bytes
	t.JmpReg(cpu.R11)
	t.Label("partial")
	// MOVIMM r0, imm64 where imm64's low bytes are 0F 05 followed by
	// NOPs, so execution falls through cleanly after the hijack.
	t.Raw(0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90)
	t.Label(".join")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

// buildP4a: a NULL-code-pointer call. The benign path skips it; the
// attack path ("a") performs it and exits 55 if execution silently
// survives.
func buildP4a() *asm.Builder {
	b := asm.NewBuilder(p4aPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R14, cpu.RSI, 8)
	t.LoadB(cpu.R14, cpu.R14, 0)
	t.CallSym("getpid") // give rewriters something to chew on
	t.CmpImm(cpu.R14, 'a')
	t.Jnz(".benign")
	t.Xor(cpu.RAX, cpu.RAX)
	t.CallReg(cpu.RAX) // call NULL
	t.MovImm32(cpu.RDI, 55)
	t.CallSym("exit_group")
	t.Label(".benign")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

// buildP5jit: a JIT that emits a syscall into an RWX page, runs it, then
// regenerates the code — which must remain possible afterwards.
func buildP5jit() *asm.Builder {
	b := asm.NewBuilder(p5jitPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite|kernel.ProtExec)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.RBX, cpu.RAX)
	// Emit "mov rax, getpid; syscall; ret".
	code := []byte{0xBD, 0x00, kernel.SysGetpid, 0x00, 0x00, 0x00, 0x0F, 0x05, 0xC3}
	for i, by := range code {
		t.MovImm32(cpu.R11, uint32(by))
		t.StoreB(cpu.RBX, int32(i), cpu.R11)
	}
	t.Mov(cpu.RAX, cpu.RBX)
	t.CallReg(cpu.RAX)
	// Regenerate: the JIT must still be able to write its page.
	t.MovImm32(cpu.R11, 0x90)
	t.StoreB(cpu.RBX, 0, cpu.R11)
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

// buildP5mt: three threads race on a cold inline syscall site. argv[1]
// is a decimal delay multiplier: worker i spins i*K iterations before its
// first execution of the site, letting the matrix scan align a worker's
// fetch with the rewriter's torn-store window.
func buildP5mt() *asm.Builder {
	b := asm.NewBuilder(p5mtPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	// Parse K (up to 2 decimal digits) from argv[1] into R15.
	t.Load(cpu.R8, cpu.RSI, 8)
	t.LoadB(cpu.R15, cpu.R8, 0)
	t.AddImm(cpu.R15, -'0')
	t.LoadB(cpu.RCX, cpu.R8, 1)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".parsed")
	t.MovImm32(cpu.R11, 10)
	t.Mul(cpu.R15, cpu.R11)
	t.AddImm(cpu.RCX, -'0')
	t.Add(cpu.R15, cpu.RCX)
	t.Label(".parsed")

	// Two worker stacks.
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 8192)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.R13, cpu.RAX)
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 8192)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.R14, cpu.RAX)

	// clone worker 1 (R9 = index 1) and worker 2 (R9 = 2). Raw clone
	// through a returning wrapper requires a return address planted on
	// the new stack: the child pops it from there.
	t.MovImmSym(cpu.R11, ".worker")
	t.Mov(cpu.RSI, cpu.R13)
	t.AddImm(cpu.RSI, 8192-72)
	t.Store(cpu.RSI, 0, cpu.R11)
	t.MovImm32(cpu.R9, 1)
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("clone")
	t.MovImmSym(cpu.R11, ".worker")
	t.Mov(cpu.RSI, cpu.R14)
	t.AddImm(cpu.RSI, 8192-72)
	t.Store(cpu.RSI, 0, cpu.R11)
	t.MovImm32(cpu.R9, 2)
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("clone")

	// Main: trigger the rewrite by executing the cold site once, then
	// keep the process alive long enough for the workers.
	t.Call(".hotsite")
	t.MovImm32(cpu.RBX, 3000)
	t.Label(".mainspin")
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".mainspin")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")

	// Worker: spin R9*K iterations, then hammer the site.
	t.Label(".worker")
	t.Mov(cpu.RBX, cpu.R9)
	t.Mul(cpu.RBX, cpu.R15)
	t.Test(cpu.RBX, cpu.RBX)
	t.Jz(".hammer")
	t.Label(".delay")
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".delay")
	t.Label(".hammer")
	t.MovImm32(cpu.RBX, 50)
	t.Label(".hloop")
	t.Call(".hotsite")
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".hloop")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit")

	t.Label(".hotsite")
	t.MovImm32(cpu.RAX, kernel.SysGetpid)
	t.Syscall()
	t.Ret()
	return b
}

// ---------------------------------------------------------------------
// PoC run functions
// ---------------------------------------------------------------------

func runP1a(h harness, spec variants.Spec) (bool, string, error) {
	postExec := 0
	sawExec := false
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysExecve {
				sawExec = true
			} else if sawExec && c.Num == kernel.SysGetpid {
				postExec++
			}
			return 0, false
		},
	}
	_, _, p, err := h.runUnder(spec, cfg, execerPath,
		[]string{"execer"}, []string{"execer"})
	if err != nil {
		return false, "", err
	}
	if p.State != kernel.ProcZombie && p.State != kernel.ProcReaped {
		return false, "process did not finish", nil
	}
	if postExec >= 5 {
		return true, fmt.Sprintf("interposition survived execve (%d post-exec getpids seen)", postExec), nil
	}
	return false, fmt.Sprintf("interposition silently disabled after execve with empty env (%d post-exec getpids seen)", postExec), nil
}

func runP1b(h harness, spec variants.Spec) (bool, string, error) {
	getpids := 0
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid && c.Mechanism != interpose.MechPtrace {
				getpids++
			}
			return 0, false
		},
	}
	_, _, p, err := h.runUnder(spec, cfg, p1bPath, []string{"p1b", "b"}, []string{"p1b", "a"})
	if err != nil {
		return false, "", err
	}
	if p.Exit.Signal != 0 {
		return true, "tampering prctl aborted the process", nil
	}
	if getpids >= 2 {
		return true, "both sites interposed despite SUD-off prctl", nil
	}
	return false, fmt.Sprintf("syscalls escaped after prctl SUD-off (%d of 2 sites interposed)", getpids), nil
}

func runP2a(h harness, spec variants.Spec) (bool, string, error) {
	lateCalls := 0
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid && c.Mechanism != interpose.MechPtrace {
				lateCalls++
			}
			return 0, false
		},
	}
	_, _, p, err := h.runUnder(spec, cfg, p2aPath, []string{"p2a"}, []string{"p2a"})
	if err != nil {
		return false, "", err
	}
	if p.Exit.Code != 0 && p.Exit.Signal == 0 {
		return false, "dlopen/dlsym failed", nil
	}
	if lateCalls >= 1 {
		return true, "dlopen-loaded syscall site interposed", nil
	}
	return false, "syscall from runtime-loaded code escaped interposition", nil
}

func runP2b(h harness, spec variants.Spec) (bool, string, error) {
	startup, timeCalls := 0, 0
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysOpenat {
				startup++
			}
			if c.Num == kernel.SysGettimeofday {
				timeCalls++
			}
			return 0, false
		},
	}
	_, _, p, err := h.runUnder(spec, cfg, p2bPath, []string{"p2b"}, []string{"p2b"})
	if err != nil {
		return false, "", err
	}
	_ = p
	switch {
	case startup < 3 && timeCalls == 0:
		return false, "missed both startup syscalls and the vdso call", nil
	case startup < 3:
		return false, fmt.Sprintf("missed startup syscalls (saw %d openat)", startup), nil
	case timeCalls == 0:
		return false, "missed the vdso gettimeofday", nil
	default:
		return true, fmt.Sprintf("saw %d startup openat calls and the (devdso'd) gettimeofday", startup), nil
	}
}

// blobIntact checks that the named data label in the target image still
// holds its original bytes.
func blobIntact(w *interpose.World, p *kernel.Process, path, label string, want []byte) (bool, error) {
	for _, li := range w.L.Loaded(p) {
		if li.Image.Path != path {
			continue
		}
		off, ok := li.Image.Symbols[label]
		if !ok {
			return false, fmt.Errorf("pitfalls: no %q in %s", label, path)
		}
		got, err := p.AS.KLoad(li.Base+off, len(want))
		if err != nil {
			return false, err
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
		return true, nil
	}
	return false, fmt.Errorf("pitfalls: %s not loaded", path)
}

func runP3a(h harness, spec variants.Spec) (bool, string, error) {
	w, l, p, err := h.runUnder(spec, interpose.Config{}, p3aPath, []string{"p3a"}, []string{"p3a"})
	if err != nil {
		return false, "", err
	}
	intact, err := blobIntact(w, p, p3aPath, "blob", []byte{0xAB, 0x0F, 0x05, 0xAB})
	if err != nil {
		return false, "", err
	}
	st := l.Stats(p)
	if intact && st.Corruptions == 0 {
		return true, "embedded data untouched", nil
	}
	return false, fmt.Sprintf("embedded data corrupted (%d corrupting rewrites)", st.Corruptions), nil
}

func runP3b(h harness, spec variants.Spec) (bool, string, error) {
	w, l, p, err := h.runUnder(spec, interpose.Config{}, p3bPath, []string{"p3b", "b"}, []string{"p3b", "a"})
	if err != nil {
		return false, "", err
	}
	intact, err := blobIntact(w, p, p3bPath, "partial",
		[]byte{0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90})
	if err != nil {
		return false, "", err
	}
	st := l.Stats(p)
	if intact && st.Corruptions == 0 {
		return true, "hijacked partial instruction left intact", nil
	}
	return false, fmt.Sprintf("hijacked partial instruction rewritten (%d corrupting rewrites)", st.Corruptions), nil
}

func runP4a(h harness, spec variants.Spec) (bool, string, error) {
	_, _, p, err := h.runUnder(spec, interpose.Config{}, p4aPath, []string{"p4a", "b"}, []string{"p4a", "a"})
	if err != nil {
		return false, "", err
	}
	if p.Exit.Signal != 0 {
		return true, fmt.Sprintf("NULL call terminated the process (%s)", p.Exit), nil
	}
	if p.Exit.Code == 55 {
		return false, "NULL call silently diverted into the trampoline and survived", nil
	}
	return false, fmt.Sprintf("unexpected exit %s", p.Exit), nil
}

func runP4b(h harness, spec variants.Spec) (bool, string, error) {
	_, l, p, err := h.runUnder(spec, interpose.Config{}, victimPath, []string{"victim"}, []string{"victim"})
	if err != nil {
		return false, "", err
	}
	st := l.Stats(p)
	const limit = 1 << 20 // 1 MiB per process
	if st.MemReservedBytes <= limit && st.MemResidentBytes <= limit {
		return true, fmt.Sprintf("check memory: %d B reserved, %d B resident", st.MemReservedBytes, st.MemResidentBytes), nil
	}
	return false, fmt.Sprintf("check memory: %d B reserved, %d B resident (address-space bitmap)", st.MemReservedBytes, st.MemResidentBytes), nil
}

func runP5(h harness, spec variants.Spec) (bool, string, error) {
	// (a) permission preservation around rewriting.
	_, l, p, err := h.runUnder(spec, interpose.Config{}, p5jitPath, []string{"p5jit"}, []string{"p5jit"})
	if err != nil {
		return false, "", err
	}
	st := l.Stats(p)
	if p.Exit.Signal != 0 || st.PermClobbers > 0 {
		return false, fmt.Sprintf("JIT page permissions lost after rewrite (%s, %d clobbers)", p.Exit, st.PermClobbers), nil
	}

	// (b) torn writes / stale I-cache under concurrent rewriting. Scan
	// worker-delay alignments; deterministic per alignment.
	wmt := h.world()
	wmt.K.Quantum = 1
	lmt, err := h.launcher(wmt, spec, interpose.Config{}, p5mtPath, []string{"p5mt", "0"})
	if err != nil {
		return false, "", err
	}
	for k := 0; k <= 90; k += 1 {
		pm, err := machine.Exec(h.ctx, wmt, lmt, p5mtPath, []string{"p5mt", fmt.Sprintf("%d", k)}, 0, 100_000_000)
		if err != nil {
			// Exec's error names the target and the mechanism; add the delay.
			return false, "", fmt.Errorf("pitfalls: %s under %s at delay %d: %w", p5mtPath, spec.Name, k, errors.Unwrap(err))
		}
		var cmc uint64
		for _, th := range pm.Threads {
			cmc += th.Core.CMCViolations
		}
		if pm.Exit.Signal == kernel.SIGILL {
			return false, fmt.Sprintf("torn rewrite executed at delay %d: %s", k, pm.Exit), nil
		}
		if cmc > 0 {
			return false, fmt.Sprintf("stale I-cache execution at delay %d (%d violations)", k, cmc), nil
		}
		if pm.Exit.Signal != 0 {
			return false, fmt.Sprintf("concurrent rewrite killed the process at delay %d: %s", k, pm.Exit), nil
		}
	}
	return true, "permissions preserved; no torn or stale execution across delay scan", nil
}
