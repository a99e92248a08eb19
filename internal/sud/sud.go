// Package sud implements a pure Syscall-User-Dispatch interposer: every
// system call outside the library's allowlisted range raises SIGSYS, the
// handler runs the hook and re-executes the call from interposer-owned
// code, then returns by rewriting the signal context. This is the
// exhaustive-but-slow baseline of the paper's Table 5 (≈15x native) and
// the engine K23's offline libLogger is built on.
package sud

import (
	"fmt"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
)

// Hostcall id for the SIGSYS handler body.
const hcSigsys int32 = 110

// SUD is the pure-SUD Launcher.
type SUD struct {
	Config interpose.Config
	// Passive arms SUD but leaves the selector on ALLOW: no syscall is
	// interposed, yet every syscall pays the slower kernel entry path.
	// This is the paper's "SUD-no-interposition" configuration (§6.2.1).
	Passive bool
	// Seccomp switches the trap mechanism from Syscall User Dispatch to
	// a seccomp TRAP-all filter with a cookie-argument allow rule — the
	// seccomp-based exhaustive-interposition alternative the paper
	// mentions for the offline phase (§5.1). Unlike SUD it has no
	// selector and cannot be disabled by the application (no P1b).
	Seccomp bool
	img     *image.Image
}

// seccompCookie is the secret arg5 value the seccomp-mode handler tags
// re-executed syscalls with; the filter allowlists it.
const seccompCookie = 0x5EC0_FFEE_D00D

// New returns a SUD launcher.
func New(cfg interpose.Config) *SUD {
	s := &SUD{Config: cfg}
	s.img = s.buildLibrary()
	return s
}

// NewPassive returns the SUD-no-interposition configuration.
func NewPassive() *SUD {
	s := &SUD{Passive: true}
	s.img = s.buildLibrary()
	return s
}

// NewSeccompTrap returns a seccomp-TRAP-based exhaustive interposer.
func NewSeccompTrap(cfg interpose.Config) *SUD {
	s := &SUD{Config: cfg, Seccomp: true}
	s.img = s.buildLibrary()
	return s
}

// Name implements interpose.Launcher.
func (s *SUD) Name() string {
	switch {
	case s.Passive:
		return "sud-no-interposition"
	case s.Seccomp:
		return "seccomp-trap"
	default:
		return "sud"
	}
}

// LibraryPath is the injected library's path.
func (s *SUD) LibraryPath() string {
	if s.Seccomp {
		return "/usr/lib/libseccomptrap.so"
	}
	return "/usr/lib/libsud.so"
}

// state is the per-process runtime state.
type state struct {
	stats interpose.Stats
	gate  Gate
}

// Launch implements interpose.Launcher.
func (s *SUD) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	return s.LaunchWith(w, path, argv, env)
}

// LaunchWith is Launch with extra spawn options (used by K23's offline
// phase to attach its injection-guard tracer).
func (s *SUD) LaunchWith(w *interpose.World, path string, argv, env []string,
	opts ...loader.SpawnOption) (*kernel.Process, error) {
	return w.L.Spawn(path, argv, w.Preload(s.img, env), opts...)
}

// Stats implements interpose.Launcher.
func (s *SUD) Stats(p *kernel.Process) *interpose.Stats {
	if st, err := interpose.StateOf[state](p, "sud"); err == nil {
		return &st.stats
	}
	return &interpose.Stats{}
}

var _ interpose.Launcher = (*SUD)(nil)

// buildLibrary assembles libsud.so.
func (s *SUD) buildLibrary() *image.Image {
	b := asm.NewBuilder(s.LibraryPath())
	b.Needed(libc.Path)

	d := b.Data()
	d.Label("sud_selector").Raw(kernel.SelectorAllow)
	d.Align(8)
	d.Label("sud_frame").Space(7 * 8)      // rax + 6 args
	d.Label("sud_filter").Space(16 + 2*40) // seccomp mode: count, default, 2 rules

	t := b.Text()
	// SIGSYS handler: host logic, then rt_sigreturn from inside the
	// allowlisted range (so the return itself is not re-dispatched —
	// the standard SUD handler structure, §2.1).
	t.Label("sud_handler")
	t.Hostcall(hcSigsys)
	t.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	t.Syscall()

	EmitGateStub(t, "sud_do_syscall", "sud_frame")

	b.InitHost(loader.Constructor(s.initHost))
	return b.MustBuild()
}

// initHost installs the handler and arms SUD.
func (s *SUD) initHost(ih *loader.InitHandle) error {
	p := ih.P

	st := &state{gate: Gate{Frame: ih.Sym("sud_frame"), Stub: ih.Sym("sud_do_syscall")}}
	p.Interposer = st
	if s.Seccomp {
		st.gate.cookie = seccompCookie
	}

	ih.L.K.RegisterHostcall(p, hcSigsys, &kernel.Hostcall{
		Name: "sud_sigsys", Cost: 40, Fn: s.hcSigsysFn,
	})

	if !s.Seccomp {
		return Arm(ih, ih.Sym("sud_handler"), ih.Sym("sud_selector"), !s.Passive)
	}
	// Seccomp mode: sigaction(SIGSYS, handler), then serialize the
	// filter into the library's data block and install it: TRAP
	// everything except cookie-tagged calls and rt_sigreturn.
	if _, err := ih.Sys(kernel.SysRtSigaction, kernel.SIGSYS, ih.Sym("sud_handler")); err != nil {
		return err
	}
	filterAddr := ih.Sym("sud_filter")
	words := []uint64{
		2, kernel.SeccompRetTrap,
		kernel.SeccompAnyNr, 1, 5, seccompCookie, kernel.SeccompRetAllow,
		kernel.SysRtSigreturn, 0, 0, 0, kernel.SeccompRetAllow,
	}
	for i, wv := range words {
		if err := p.AS.KStoreU64(filterAddr+uint64(8*i), wv); err != nil {
			return err
		}
	}
	if ret, err := ih.Sys(kernel.SysSeccomp, kernel.SeccompSetModeFilter, 0, filterAddr); err != nil {
		return err
	} else if e, isErr := kernel.IsErr(ret); isErr {
		return fmt.Errorf("sud: seccomp install: errno %d", e)
	}
	return nil
}

// Arm is the SUD arming protocol every SUD-style library constructor
// runs: rt_sigaction(SIGSYS, handler), then prctl(PR_SET_SYSCALL_USER_
// DISPATCH, ON, ...) allowlisting the library's .text with the selector
// byte at selector, then — when block is set — the selector switched to
// BLOCK so every call outside the allowlist traps. Passive SUD leaves
// it on ALLOW.
func Arm(ih *loader.InitHandle, handler, selector uint64, block bool) error {
	if _, err := ih.Sys(kernel.SysRtSigaction, kernel.SIGSYS, handler); err != nil {
		return err
	}
	text, _ := ih.Li.Image.Section(".text")
	if _, err := ih.Sys(kernel.SysPrctl, kernel.PrSetSyscallUserDispatch, kernel.PrSysDispatchOn,
		ih.Li.Base+text.Off, text.Size, selector); err != nil {
		return err
	}
	if !block {
		return nil
	}
	return ih.P.AS.Store(selector, []byte{kernel.SelectorBlock}, ih.T.Core.PKRU)
}

// EmitGateStub assembles a Gate's do-syscall stub at label stub: load
// the number and six arguments from the 7-word frame at label frame
// into their registers and issue the call. The stub must lie inside the
// allowlisted range, so the call it issues is never re-dispatched.
func EmitGateStub(t *asm.SectionBuilder, stub, frame string) {
	t.Label(stub)
	t.MovImmSym(cpu.R11, frame)
	t.Load(cpu.RAX, cpu.R11, 0)
	for i, r := range cpu.SyscallArgRegs {
		t.Load(r, cpu.R11, int32(8*(i+1)))
	}
	t.Syscall()
	t.Ret()
}

// hcSigsysFn is the handler body: decode the trap, run the hook, and
// complete the call into the saved context.
func (s *SUD) hcSigsysFn(k *kernel.Kernel, t *kernel.Thread) error {
	st, err := interpose.StateOf[state](t.Proc, "sud")
	if err != nil {
		return err
	}
	tr, err := Decode(k, t)
	if err != nil {
		return err
	}
	st.stats.SUD++
	interpose.Observe(&tr.Call)
	return tr.Complete(s.Config.Hook, st.gate, nil)
}

// Trap is one SIGSYS delivery as an SUD-style handler sees it: the
// trapped call, and the saved user context the handler completes it
// into. The sud, lazypoline and K23 fallback handlers share it.
type Trap struct {
	interpose.Call
	uctx uint64 // saved ucontext the handler returns through
}

// Decode reads the siginfo (RSI) and ucontext (RDX) the kernel handed a
// SIGSYS handler into a Trap, marking handler entry once the trapped
// number and site are known.
func Decode(k *kernel.Kernel, t *kernel.Thread) (Trap, error) {
	as := t.Proc.AS
	ctx := &t.Core.Ctx
	siginfo := ctx.R[cpu.RSI]
	nr, err := as.KLoadU64(siginfo + kernel.SigInfoSyscall)
	if err != nil {
		return Trap{}, err
	}
	callAddr, err := as.KLoadU64(siginfo + kernel.SigInfoCallAddr)
	if err != nil {
		return Trap{}, err
	}
	tr := Trap{
		Call: interpose.Call{Kernel: k, Thread: t, Num: nr,
			Site: callAddr - uint64(cpu.SyscallInstLen), Mechanism: interpose.MechSUD},
		uctx: ctx.R[cpu.RDX],
	}
	interpose.Phase(&tr.Call, kernel.PhHandler)
	for i, r := range cpu.SyscallArgRegs {
		if tr.Args[i], err = as.KLoadU64(tr.uctx + kernel.UctxRegs + uint64(8*int(r))); err != nil {
			return Trap{}, err
		}
	}
	return tr, nil
}

// Complete runs the hook step on the trapped call and finishes it.
// Unless the hook emulated it, the call is forwarded: a clone through
// interpose.EmulateClone (resuming the child after the trapped
// instruction), anything else re-executed through g. The result goes
// into the saved RAX. A call that would block instead re-arms the
// trapped instruction, so the application retries it once woken.
func (tr Trap) Complete(h interpose.Hook, g Gate,
	setupChild func(k *kernel.Kernel, parent, child *kernel.Thread)) error {
	c := &tr.Call
	as := c.Thread.Proc.AS
	ret, emulated := interpose.Dispatch(c, h)
	if !emulated {
		interpose.Phase(c, kernel.PhForward)
		if c.Num == kernel.SysClone {
			// The child must not resume inside the do-syscall stub with
			// a frameless stack.
			ret = interpose.EmulateClone(c.Kernel, c.Thread, c.Args,
				c.Site+uint64(cpu.SyscallInstLen), setupChild)
		} else {
			var err error
			ret, err = g.Exec(c.Kernel, c.Thread, c.Num, c.Args)
			if err == kernel.ErrGuestWouldBlock {
				interpose.Phase(c, kernel.PhHandlerRet)
				return as.KStoreU64(tr.uctx+kernel.UctxRIP, c.Site)
			}
			if err != nil {
				return err
			}
		}
	}
	interpose.Phase(c, kernel.PhHandlerRet)
	return as.KStoreU64(tr.uctx+kernel.UctxRegs+uint64(8*int(cpu.RAX)), ret)
}

// Gate is an SUD-style library's allowlisted re-execution path: a
// 7-word syscall frame (number + six arguments) and the do-syscall stub
// inside the allowlisted range that loads and issues it.
type Gate struct {
	Frame, Stub uint64
	// cookie, when nonzero, replaces the sixth argument: the seccomp
	// mode's filter allows only calls tagged with it.
	cookie uint64
}

// Exec issues syscall nr with args through the gate.
func (g Gate) Exec(k *kernel.Kernel, t *kernel.Thread, nr uint64, args [6]uint64) (uint64, error) {
	if g.cookie != 0 {
		args[5] = g.cookie
	}
	as := t.Proc.AS
	if err := as.KStoreU64(g.Frame, nr); err != nil {
		return 0, err
	}
	for i, a := range args {
		if err := as.KStoreU64(g.Frame+uint64(8*(i+1)), a); err != nil {
			return 0, err
		}
	}
	return k.CallGuestInfra(t, g.Stub, [6]uint64{})
}
