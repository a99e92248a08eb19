// Package interpose defines the common system call interposition API the
// five interposers of this reproduction implement: the user-facing hook
// type and the one hook step every mechanism runs it through, launch
// configuration and variants (Table 4), per-process statistics, and the
// World bundle that ties a kernel, loader and image registry together.
package interpose

import (
	"fmt"

	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
)

// Mechanism says how a syscall reached the interposition code.
type Mechanism uint8

// Mechanisms.
const (
	MechNone    Mechanism = iota
	MechRewrite           // zpoline-style rewritten call *%rax
	MechSUD               // SIGSYS via Syscall User Dispatch
	MechPtrace            // ptrace syscall-stop
)

func (m Mechanism) String() string {
	switch m {
	case MechRewrite:
		return "rewrite"
	case MechSUD:
		return "sud"
	case MechPtrace:
		return "ptrace"
	default:
		return "none"
	}
}

// Call is the state of one interposed system call, handed to hooks with
// full expressiveness: registers, memory (via Thread), and the site that
// triggered it.
type Call struct {
	Kernel    *kernel.Kernel
	Thread    *kernel.Thread
	Num       uint64
	Args      [6]uint64 // modifications are applied before execution
	Site      uint64    // address of the triggering instruction
	Mechanism Mechanism
}

// Observe publishes a mechanism-attribution event for c on its kernel's
// trace stream: "syscall Num at Site was handled by Mechanism". Every
// interposer calls this where it bumps its own per-mechanism counter,
// which is how the observability layer breaks metrics down by path
// (rewrite vs. sud vs. ptrace) without importing any interposer.
// Nil-cost when no event observer is installed.
func Observe(c *Call) {
	c.Kernel.EmitInterposed(c.Thread, c.Mechanism.String(), c.Num, c.Site)
}

// Resolve publishes the outcome of a hooked call when it diverges from
// plain pass-through: the hook emulated it in-process (no kernel
// execution of the claimed number will follow) or rewrote the number to
// nr before forwarding. The audit joiner uses it to retire or update
// the attribution claim Observe opened; pass-through calls need no
// resolve — their kernel-side oracle closes the claim. Nil-cost when no
// event observer is installed.
func Resolve(c *Call, nr uint64, emulated bool) {
	c.Kernel.EmitResolve(c.Thread, c.Mechanism.String(), nr, c.Site, emulated)
}

// Phase publishes a span-layer phase mark attributed to c's mechanism
// (handler entry/exit, hook dispatch, forwarding, emulation). Like
// Observe it is nil-cost when no phase observer is installed.
func Phase(c *Call, ph kernel.Phase) {
	c.Kernel.EmitPhase(c.Thread, ph, c.Num, c.Site, c.Mechanism.String())
}

// Hook observes and optionally emulates a syscall. If emulated is true,
// ret is returned to the application and the original call is not
// executed. A nil Hook passes everything through — the "empty
// interposition function" of the paper's methodology (§6.2).
type Hook func(c *Call) (ret uint64, emulated bool)

// NewCall builds the Call for syscall nr at site whose arguments are
// live in ctx: a rewritten site's trampoline or a ptrace stop. The Call
// is a value, so a call with no hook never reaches the heap.
func NewCall(k *kernel.Kernel, t *kernel.Thread, m Mechanism, nr, site uint64, ctx *cpu.Context) Call {
	c := Call{Kernel: k, Thread: t, Num: nr, Site: site, Mechanism: m}
	for i := range c.Args {
		c.Args[i] = ctx.Arg(i)
	}
	return c
}

// Dispatch is the hook step every mechanism shares, whichever way the
// call reached it: mark the hook, run it, and resolve the attribution
// claim when the hook emulated the call or renumbered it. A nil hook
// passes the call through unmarked. The hook may keep the *Call it is
// given, so it gets a heap copy, whose changes are copied back into c.
func Dispatch(c *Call, h Hook) (ret uint64, emulated bool) {
	if h == nil {
		return 0, false
	}
	hc := new(Call)
	*hc = *c
	Phase(hc, kernel.PhHook)
	ret, emulated = h(hc)
	nr := c.Num
	*c = *hc
	if emulated {
		Resolve(c, c.Num, true)
		Phase(c, kernel.PhEmulate)
	} else if c.Num != nr {
		Resolve(c, c.Num, false)
	}
	return ret, emulated
}

// DispatchRegs runs Dispatch for a call whose registers are live in ctx
// and writes the outcome back: an emulated result into RAX, otherwise
// the (possibly rewritten) number and arguments of the call to forward.
func DispatchRegs(c *Call, h Hook, ctx *cpu.Context) (emulated bool) {
	ret, emulated := Dispatch(c, h)
	if emulated {
		ctx.R[cpu.RAX] = ret
		return true
	}
	ctx.R[cpu.RAX] = c.Num
	for i, a := range c.Args {
		ctx.SetArg(i, a)
	}
	return false
}

// Trampoline runs the hook step for a call that entered a rewritten
// site's trampoline, returning to the application at retAddr, and tells
// the trampoline how to finish through R11: 0 issues the (possibly
// renumbered) call with the trampoline's own SYSCALL instruction, 1
// skips it because RAX already holds the result — an emulated call, or
// a clone serviced by EmulateClone. The handler span closes here, in
// the entry hostcall: a forwarded call's trap span follows it, linked
// by a cause edge rather than nested inside it.
func Trampoline(c *Call, h Hook, ctx *cpu.Context, retAddr uint64,
	setupChild func(k *kernel.Kernel, parent, child *kernel.Thread)) {
	switch {
	case DispatchRegs(c, h, ctx):
		ctx.R[cpu.R11] = 1
	case c.Num == kernel.SysClone:
		Phase(c, kernel.PhForward)
		ctx.R[cpu.RAX] = EmulateClone(c.Kernel, c.Thread, c.Args, retAddr, setupChild)
		ctx.R[cpu.R11] = 1
	default:
		Phase(c, kernel.PhForward)
		ctx.R[cpu.R11] = 0
	}
	Phase(c, kernel.PhHandlerRet)
}

// Config is the user-facing interposer configuration.
type Config struct {
	Hook Hook

	// NullExecCheck enables the defence against unintended control
	// transfers into the page-zero trampoline (the -ultra variants,
	// Table 4): entries whose return site is not a known rewritten
	// syscall site abort the process (addresses P4a).
	NullExecCheck bool

	// StackSwitch makes the interposer run on a dedicated stack
	// (K23-ultra+ only, paper §5.3).
	StackSwitch bool
}

// Stats counts interposition activity for one process.
type Stats struct {
	// ByMechanism counts interposed syscalls per mechanism.
	Rewritten uint64
	SUD       uint64
	Ptraced   uint64

	// Sites is the number of rewritten syscall instruction sites.
	Sites int

	// Corruptions counts writes the interposer performed to locations
	// that were NOT genuine syscall instructions (the P3 damage
	// counter, maintained by the rewriting interposers).
	Corruptions int

	// NullExecAborts counts aborted unknown-origin trampoline entries.
	NullExecAborts int

	// PermClobbers counts pages whose permissions the interposer failed
	// to restore faithfully after rewriting (lazypoline's P5 flaw: it
	// assumes RX instead of saving the original).
	PermClobbers int

	// MemReservedBytes and MemResidentBytes estimate the footprint of
	// the NULL-execution check structure (bitmap vs hash set; P4b).
	MemReservedBytes uint64
	MemResidentBytes uint64
}

// Total returns the total number of interposed syscalls.
func (s *Stats) Total() uint64 { return s.Rewritten + s.SUD + s.Ptraced }

// Launcher is the common entry point the benchmarks and examples drive:
// an interposer launches a program under its supervision.
type Launcher interface {
	// Name identifies the interposer variant, e.g. "zpoline-default".
	Name() string
	// Launch starts the program interposed. The returned process is not
	// yet run; drive it with World.K.RunUntilExit or World.K.Run.
	Launch(w *World, path string, argv, env []string) (*kernel.Process, error)
	// Stats returns interposition statistics for a launched process.
	Stats(p *kernel.Process) *Stats
}

// World bundles a simulated machine: kernel, loader and image registry
// with libc preregistered.
type World struct {
	K   *kernel.Kernel
	L   *loader.Loader
	Reg *image.Registry
}

// NewWorld creates a fresh world. Kernel options (decode cache mode,
// virtual clock seed, ...) apply to the new kernel only: a World shares
// no mutable state with any other World, which is what lets the fleet
// executor run many of them on concurrent goroutines.
func NewWorld(opts ...kernel.Option) *World {
	k := kernel.New(opts...)
	reg := image.NewRegistry()
	reg.MustAdd(libc.Image())
	l := loader.New(k, reg)
	return &World{K: k, L: l, Reg: reg}
}

// Run drives the process to completion with a generous budget.
func (w *World) Run(p *kernel.Process) error {
	return w.K.RunUntilExit(p, 500_000_000)
}

// MustRegister adds an image to the registry, panicking on structural
// errors (static program definitions).
func (w *World) MustRegister(im *image.Image) { w.Reg.MustAdd(im) }

// LibcPath re-exports the libc path for convenience.
const LibcPath = libc.Path

// Native is the no-interposition baseline Launcher.
type Native struct{}

// Name implements Launcher.
func (Native) Name() string { return "native" }

// Launch implements Launcher: a plain spawn.
func (Native) Launch(w *World, path string, argv, env []string) (*kernel.Process, error) {
	return w.L.Spawn(path, argv, env)
}

// Stats implements Launcher: the native baseline interposes nothing.
func (Native) Stats(p *kernel.Process) *Stats { return &Stats{} }

var _ Launcher = Native{}

// Abort builds the error an interposer hostcall returns to terminate the
// process (the kernel converts hostcall errors into a process kill).
func Abort(why string) error { return fmt.Errorf("interposer abort: %s", why) }

// EmulateClone services a clone system call on behalf of an in-process
// interposer. Executing clone from inside a handler is wrong: the child
// inherits the handler-frame RIP but gets a fresh stack holding none of
// the handler's frame, so it would pop garbage and return to address
// zero. Every production rewriting interposer special-cases clone; so do
// ours. The child is set up to resume directly at the application's
// post-syscall address with the requested stack and RAX = 0.
//
// setupChild, if non-nil, runs on the new thread before it is first
// scheduled (K23-ultra+ allocates the child's dedicated stack there).
func EmulateClone(k *kernel.Kernel, t *kernel.Thread, args [6]uint64,
	resumeRIP uint64, setupChild func(k *kernel.Kernel, parent, child *kernel.Thread)) uint64 {
	ret := k.DirectSyscall(t, kernel.SysClone, args)
	if _, isErr := kernel.IsErr(ret); isErr {
		return ret
	}
	child := t.Proc.ThreadByTID(int(ret))
	if child == nil {
		return ret
	}
	ctx := &child.Core.Ctx
	ctx.RIP = resumeRIP
	if args[1] != 0 {
		ctx.R[cpu.RSP] = args[1]
	}
	ctx.R[cpu.RAX] = 0 // the child's clone return value
	if setupChild != nil {
		setupChild(k, t, child)
	}
	return ret
}
