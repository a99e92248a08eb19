// Package ptracer implements a ptrace-based interposer: a cross-process
// tracer that observes every system call from the tracee's very first
// instruction — the only commodity mechanism with that property (paper
// §5.2) — at the price of two stop round-trips per call. It is both the
// slow exhaustive baseline and the startup-phase component K23 builds on.
package ptracer

import (
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/loader"
)

// Ptracer is the Launcher.
type Ptracer struct {
	Config interpose.Config
	// KeepVDSO leaves the vdso mapped. By default the ptracer disables
	// it so vdso-reachable calls become real, traceable syscalls.
	KeepVDSO bool
}

// New returns a ptrace launcher.
func New(cfg interpose.Config) *Ptracer {
	return &Ptracer{Config: cfg}
}

// Name implements interpose.Launcher.
func (pt *Ptracer) Name() string { return "ptrace" }

// state is per-process interposition state.
type state struct {
	stats interpose.Stats
}

// tracer adapts the Config to the kernel's Tracer interface.
type tracer struct {
	pt *Ptracer
	st *state
}

var _ kernel.Tracer = (*tracer)(nil)

// SyscallEnter implements kernel.Tracer.
func (tr *tracer) SyscallEnter(k *kernel.Kernel, t *kernel.Thread, nr, site uint64) bool {
	tr.st.stats.Ptraced++
	return Stop(k, t, nr, site, tr.pt.Config.Hook)
}

// Stop runs the hook protocol at a syscall-entry stop, reading and
// writing the tracee's registers through ptrace (one access charge). It
// reports whether the call is suppressed: the hook emulated it and RAX
// holds the result. K23's startup ptracer shares it.
func Stop(k *kernel.Kernel, t *kernel.Thread, nr, site uint64, h interpose.Hook) (suppress bool) {
	regs := k.TraceeRegs(t)
	call := interpose.NewCall(k, t, interpose.MechPtrace, nr, site, regs)
	// The handler span covers the enter stop only; the kernel slice that
	// follows lands in the enclosing trap span.
	interpose.Phase(&call, kernel.PhHandler)
	interpose.Observe(&call)
	suppress = interpose.DispatchRegs(&call, h, regs)
	if !suppress {
		interpose.Phase(&call, kernel.PhForward)
	}
	interpose.Phase(&call, kernel.PhHandlerRet)
	return suppress
}

// Execve implements kernel.Tracer: the plain ptracer stays attached
// across exec (Linux semantics) and does not rewrite the environment.
func (tr *tracer) Execve(k *kernel.Kernel, t *kernel.Thread, path string, argv, env []string) []string {
	return nil
}

// Launch implements interpose.Launcher.
func (pt *Ptracer) Launch(w *interpose.World, path string, argv, env []string) (*kernel.Process, error) {
	st := &state{}
	opts := []loader.SpawnOption{
		loader.WithTracer(&tracer{pt: pt, st: st}),
		loader.WithPreInit(func(p *kernel.Process, t *kernel.Thread) error {
			p.Interposer = st
			return nil
		}),
	}
	if !pt.KeepVDSO {
		opts = append(opts, loader.WithDisableVDSO())
	}
	return w.L.Spawn(path, argv, env, opts...)
}

// Stats implements interpose.Launcher.
func (pt *Ptracer) Stats(p *kernel.Process) *interpose.Stats {
	if st, ok := p.Interposer.(*state); ok {
		return &st.stats
	}
	return &interpose.Stats{}
}

var _ interpose.Launcher = (*Ptracer)(nil)
