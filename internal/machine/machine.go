// Package machine is the one machine runner: it owns, once, every step
// of a simulated-machine run — world setup from the seed, the K23
// offline phase, the post-offline attach point, launch and payload
// injection, the canonical sliced drive loop, and the outcome under a
// single definition of trace hash, event hash, VFS hash, steps, syscalls
// and exit.
//
// The fleet, the record/replay engine, the k23 CLI and the difftest
// engine battery all run machines through Start and Drive; a recording
// is an observer attached at the attach point, so a recorded run is the
// same execution as an unrecorded one. Callers that need their own
// drive (two-point slopes that launch twice in one world, the pitfall
// PoCs' benign/attack argv split) call Launcher, which runs the offline
// phase, and drive the launched process themselves.
package machine

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
)

// The listen-poll constants; the drive loops run in kernel.Slice slices.
const (
	// PollSlice is the Run slice while waiting for a server to listen.
	// The host injects the connection after the first poll slice in
	// which the server listens, so PollSlice sets when the guest sees
	// its input: it is part of the workload, not a scheduling choice.
	PollSlice = 10_000
	// PollTries bounds the listen-poll loop.
	PollTries = 5_000
)

// DefaultMaxInsts is the instruction budget of a run whose Spec leaves
// MaxInsts zero, and of every offline phase.
const DefaultMaxInsts = 500_000_000

// Spec is a run's configuration: everything needed to rebuild the
// world, plus the seed the derived quantities (initial clock, payload,
// chaos stream) are drawn from. It is the run half of a recording's
// nondeterminism frontier, so its JSON form is part of the recording
// format.
type Spec struct {
	// Name labels the run in reports.
	Name string `json:"name"`
	// Mechanism is the interposer variant (variants.ByName); empty means
	// native execution.
	Mechanism string `json:"mechanism,omitempty"`
	// Path and Argv name the program to boot.
	Path string   `json:"path"`
	Argv []string `json:"argv"`
	// Server marks a workload driven by an injected client connection.
	Server bool `json:"server,omitempty"`
	// Requests is the number of requests per injected connection.
	Requests int `json:"requests,omitempty"`
	// Seed individualizes the machine: it derives the initial virtual
	// clock, the server payload and (xor ChaosSeed) the chaos stream.
	Seed uint64 `json:"seed"`
	// Chaos, when non-nil, arms deterministic fault injection.
	Chaos *kernel.ChaosProfile `json:"chaos,omitempty"`
	// ChaosSeed salts the chaos seed derivation (Seed ^ ChaosSeed).
	ChaosSeed uint64 `json:"chaos_seed,omitempty"`
	// MaxInsts bounds the run; 0 means DefaultMaxInsts.
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// CheckpointEvery is the recorder's checkpoint interval in
	// virtual-clock ticks; 0 means the recorder's default.
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// Mech names the run's interposer variant: Mechanism, or "native".
func (s Spec) Mech() string {
	if s.Mechanism == "" {
		return "native"
	}
	return s.Mechanism
}

func (s Spec) maxInsts() uint64 {
	if s.MaxInsts == 0 {
		return DefaultMaxInsts
	}
	return s.MaxInsts
}

// Splitmix64 is the seed-expansion PRNG (public-domain constants).
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// seedPayload derives a deterministic request payload from the seed.
func seedPayload(seed uint64, n int) []byte {
	b := make([]byte, n)
	s := Splitmix64(seed)
	for i := range b {
		s = Splitmix64(s)
		b[i] = 'A' + byte(s%26)
	}
	return b
}

// StandardSetup prepares a world with the standard workload set.
func StandardSetup(w *interpose.World) error {
	apps.RegisterAll(w.Reg)
	return apps.SetupFS(w.K.FS)
}

// Offline runs the K23 offline phase of path in w and returns the log
// path and the number of unique sites the log holds. A server (requests
// > 0) gets a connection of requests all-zero requests, so it serves and
// exits instead of polling away the budget; the payload is a constant,
// so the phase is identical between a recorded run and its replays.
// The phase runs to exit through kernel.RunUntilExit under
// DefaultMaxInsts, with ctx checked every slice.
func Offline(ctx context.Context, w *interpose.World, path string, argv []string, requests int) (string, int, error) {
	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, path, argv, nil)
	if err != nil {
		return "", 0, fmt.Errorf("offline: %w", err)
	}
	k, p := w.K, run.Process()
	if requests > 0 {
		if err := Listen(ctx, k, p, make([]byte, apps.RequestSize), requests); err != nil {
			return "", 0, fmt.Errorf("offline: %w", err)
		}
	}
	if err := k.RunUntilExit(p, DefaultMaxInsts, ctx.Err); err != nil {
		return "", 0, fmt.Errorf("offline: %w", err)
	}
	sites, err := run.Finish()
	if err != nil {
		return "", 0, fmt.Errorf("offline: %w", err)
	}
	return off.LogPath(path[strings.LastIndexByte(path, '/')+1:]), sites, nil
}

// Listen runs k in PollSlice slices until p's server listens, then
// queues one keepalive connection of requests copies of req. It returns
// nil at once if p stops running first: there is nothing to serve, and
// how p ended is the caller's to read.
func Listen(ctx context.Context, k *kernel.Kernel, p *kernel.Process, req []byte, requests int) error {
	port := apps.BasePort + p.PID
	for i := 0; ; i++ {
		if p.State != kernel.ProcRunning {
			return nil
		}
		if i == PollTries {
			return fmt.Errorf("machine: server on port %d never listened", port)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		k.Run(PollSlice)
		if k.InjectConn(port, req, requests, nil) == nil {
			return nil
		}
	}
}

// Launcher returns mech's launcher for path in w, running the offline
// phase on argv first when mech needs a log (requests as in Offline).
// The caller's attach point is right after Launcher returns.
func Launcher(ctx context.Context, w *interpose.World, mech variants.Spec, cfg interpose.Config,
	path string, argv []string, requests int) (interpose.Launcher, error) {
	logPath := ""
	if mech.NeedsOfflineLog {
		var err error
		if logPath, _, err = Offline(ctx, w, path, argv, requests); err != nil {
			return nil, err
		}
	}
	return mech.New(cfg, logPath), nil
}

// Exec launches path under l in w and runs it to exit: the step for a
// caller that launches on its own. A server (requests > 0) first gets
// one keepalive connection of requests all-zero requests through Listen.
// The run is kernel.RunUntilExit under budget with ctx checked before
// every slice. Errors name path and l. The process is returned whenever
// the launch succeeded.
func Exec(ctx context.Context, w *interpose.World, l interpose.Launcher, path string, argv []string,
	requests int, budget uint64) (*kernel.Process, error) {
	p, err := l.Launch(w, path, argv, nil)
	if err != nil {
		return nil, fmt.Errorf("machine: %s under %s: %w", path, l.Name(), err)
	}
	if requests > 0 {
		err = Listen(ctx, w.K, p, make([]byte, apps.RequestSize), requests)
	}
	if err == nil {
		err = w.K.RunUntilExit(p, budget, ctx.Err)
	}
	if err != nil {
		return p, fmt.Errorf("machine: %s under %s: %w", path, l.Name(), err)
	}
	return p, nil
}

// Point names a boundary of the drive at which Run.Observe is called.
type Point int

const (
	// Launched: the process has just been launched; nothing has run.
	Launched Point = iota
	// Injected: the server's connection has just been queued.
	Injected
	// Sliced: one main-loop slice has just finished.
	Sliced
)

// Config is what a caller adds to a run.
type Config struct {
	// Setup prepares the world; nil means StandardSetup. It must be
	// self-contained: it may not capture mutable state shared with any
	// other machine.
	Setup func(w *interpose.World) error
	// Kernel options apply after the seed-derived clock and chaos
	// options, so a replay substitutes its recorded frontier here.
	Kernel []kernel.Option
	// Attach runs at the attach point — after the offline phase,
	// immediately before launch — which is where every observer
	// attaches: the offline phase is the controlled environment no
	// observer, hash or recording covers.
	Attach func(r *Run)
}

// Run is one machine in flight.
type Run struct {
	Spec Spec
	W    *interpose.World
	L    interpose.Launcher
	P    *kernel.Process
	// VClock0 is the world's initial virtual clock and Payload the
	// server's request payload: with the chaos stream, the frontier a
	// recording captures. An attach function may replace Payload.
	VClock0 uint64
	Payload []byte
	// Injected records that the server's connection has been queued.
	Injected bool
	// Trace and Events are the running trace and event hashes, and
	// Syscalls the syscall-entry count, all since the attach point.
	// They are fields so a recorder can save and restore them.
	Trace    cpu.TraceHash
	Events   Hash
	Syscalls uint64
	// Observe, if set (by an attach function), is called at every drive
	// boundary; an error stops the drive.
	Observe func(at Point) error

	base uint64 // instructions retired before the attach point
}

// Start boots spec: it builds the world (the seed derives the initial
// virtual clock, Seed ^ ChaosSeed the chaos stream), runs the offline
// phase when the mechanism needs one, installs the outcome hooks, calls
// c.Attach, and launches the program. Drive runs it. A done ctx stops
// it before it builds anything.
func Start(ctx context.Context, spec Spec, c Config) (*Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mech, ok := variants.ByName(spec.Mech())
	if !ok {
		return nil, fmt.Errorf("machine: unknown mechanism %q", spec.Mechanism)
	}
	// One virtual-clock tick per seed step keeps the offset well clear
	// of wrap-around while making gettimeofday visibly seed-dependent.
	kopts := []kernel.Option{kernel.WithVClock(Splitmix64(spec.Seed) % (1 << 40))}
	if spec.Chaos != nil {
		kopts = append(kopts, kernel.WithChaos(Splitmix64(spec.Seed^spec.ChaosSeed), *spec.Chaos))
	}
	w := interpose.NewWorld(append(kopts, c.Kernel...)...)
	r := &Run{Spec: spec, W: w, VClock0: w.K.VClock, Trace: cpu.NewTraceHash(), Events: NewHash()}
	setup := c.Setup
	if setup == nil {
		setup = StandardSetup
	}
	err := setup(w)
	requests := 0
	if spec.Server {
		r.Payload = seedPayload(spec.Seed, apps.RequestSize)
		requests = spec.Requests
	}
	if err == nil {
		r.L, err = Launcher(ctx, w, mech, interpose.Config{}, spec.Path, spec.Argv, requests)
	}
	if err != nil {
		return nil, err
	}
	r.base = Insts(w.K)
	w.K.OnEvent(func(e *kernel.Event) {
		if e.Kind == kernel.EvEnter {
			r.Syscalls++
		}
		r.Events.Event(e.PID, e.TID, e.Kind.String(), e.Num, e.Site, e.Ret, e.Detail)
	})
	if c.Attach != nil {
		c.Attach(r)
	}
	if r.P, err = r.L.Launch(w, spec.Path, spec.Argv, nil); err != nil {
		return nil, err
	}
	return r, r.observe(Launched)
}

// HashTrace turns on per-instruction trace hashing (Outcome.TraceHash):
// every core the kernel creates from now on folds its retired
// instructions into r.Trace. Call it from an attach function.
func (r *Run) HashTrace() { r.W.K.Trace = &r.Trace }

func (r *Run) observe(at Point) error {
	if r.Observe == nil {
		return nil
	}
	return r.Observe(at)
}

// Drive runs the machine until its process exits: it injects the
// server's connection first (polling in PollSlice slices until the
// server listens), then runs kernel.Slice slices. Observers see the
// run only on slice boundaries (the recorder's checkpoints land there).
// ctx, the budget and deadlock are checked before every slice. With
// untilSeq > 0 it stops as soon as the kernel has emitted untilSeq
// events.
func (r *Run) Drive(ctx context.Context, untilSeq uint64) error {
	k := r.W.K
	reached := func() bool { return untilSeq > 0 && k.EventSeq() >= untilSeq }
	if r.Spec.Server && !r.Injected {
		port := apps.BasePort + r.P.PID
		for i := 0; ; i++ {
			if r.P.State != kernel.ProcRunning || reached() {
				return nil
			}
			if i == PollTries {
				return fmt.Errorf("machine: server on port %d never listened", port)
			}
			if err := r.check(ctx); err != nil {
				return err
			}
			k.Run(PollSlice)
			if k.InjectConn(port, r.Payload, r.Spec.Requests, nil) == nil {
				r.Injected = true
				if err := r.observe(Injected); err != nil {
					return err
				}
				break
			}
		}
	}
	for r.P.State == kernel.ProcRunning && !reached() {
		if err := r.check(ctx); err != nil {
			return err
		}
		if k.Run(kernel.Slice) == 0 && r.P.State == kernel.ProcRunning {
			return fmt.Errorf("machine: deadlock: pid %d has no runnable threads", r.P.PID)
		}
		if err := r.observe(Sliced); err != nil {
			return err
		}
	}
	return nil
}

// check reports cancellation or budget exhaustion.
func (r *Run) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n := r.Steps(); n >= r.Spec.maxInsts() {
		return fmt.Errorf("machine: budget exhausted after %d instructions", n)
	}
	return nil
}

// Steps counts the guest instructions retired since the attach point.
func (r *Run) Steps() uint64 { return Insts(r.W.K) - r.base }

// Insts sums the instructions every thread of k has retired.
func Insts(k *kernel.Kernel) uint64 {
	var n uint64
	for _, p := range k.Processes() {
		for _, t := range p.Threads {
			n += t.Core.Insts
		}
	}
	return n
}

// Outcome is the observable result of a run: the comparison surface of
// the determinism, replay-equivalence and recorded-equals-unrecorded
// proofs. Hashes, steps and syscalls cover the run from the attach
// point on.
type Outcome struct {
	// TraceHash hashes the (tid, rip, op) retired-instruction stream; 0
	// unless HashTrace was called.
	TraceHash uint64
	// EventHash hashes the kernel event stream (Hash.Event lines).
	EventHash uint64
	// VFSHash hashes the final filesystem tree.
	VFSHash  uint64
	Steps    uint64
	Syscalls uint64
	Exit     kernel.ExitInfo
	// ChaosInjected counts fault-injector perturbations.
	ChaosInjected uint64
}

// Outcome reads the run's observable result off the live world.
func (r *Run) Outcome() Outcome {
	o := Outcome{
		EventHash: uint64(r.Events), VFSHash: r.W.K.FS.TreeHash(),
		Steps: r.Steps(), Syscalls: r.Syscalls, Exit: r.P.Exit,
		ChaosInjected: r.W.K.ChaosInjected(),
	}
	if r.W.K.Trace == &r.Trace {
		o.TraceHash = uint64(r.Trace)
	}
	return o
}
