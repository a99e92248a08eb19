// Package kernel implements the simulated Linux kernel the K23
// reproduction runs on: processes and threads over the cpu/mem substrate,
// a deterministic preemptive scheduler, the x86-64 system call table
// (numbers match Linux), POSIX-style signals with user-space handler
// frames, Syscall User Dispatch (SUD), a host-level ptrace facility, PKU
// system calls, a minimal localhost socket layer, and the calibrated
// cycle-cost model that the paper-shape benchmarks are built on.
package kernel

import (
	"fmt"
	"slices"
	"sort"

	"k23/internal/cpu"
	"k23/internal/mem"
	"k23/internal/vfs"
)

// CostModel holds the cycle costs of kernel-mediated events. The defaults
// are calibrated so the microbenchmark (Table 5) and macrobenchmark
// (Table 6) reproduce the shape of the paper's results; see
// defaultCostModel and EXPERIMENTS.md.
type CostModel struct {
	// Trap is the user->kernel->user transition cost of a bare SYSCALL.
	Trap uint64
	// KernelWork is the default in-kernel service cost of a syscall.
	KernelWork uint64
	// SUDSlowPath is added to every syscall trap in a process once SUD
	// has been armed, even when the selector currently allows the call:
	// arming SUD moves syscall entry onto a slower kernel path
	// (paper §6.2.1, "SUD-no-interposition").
	SUDSlowPath uint64
	// SignalDeliver is the cost of delivering one signal to a user-space
	// handler plus the matching rt_sigreturn.
	SignalDeliver uint64
	// PtraceStop is one ptrace syscall-stop round trip (tracee freeze,
	// context switch to tracer and back).
	PtraceStop uint64
	// PtraceAccess is one tracer access to tracee state
	// (PTRACE_PEEKDATA/POKEDATA/GETREGS or process_vm_readv/writev).
	PtraceAccess uint64
	// SfipCheck is the per-trap-syscall cost of an in-kernel
	// syscall-flow-integrity policy check (origin-set membership plus
	// one transition-edge lookup). Charged only while an SFIP enforcer
	// is installed in enforce mode; log mode and the disabled path cost
	// a nil-check (§2h).
	SfipCheck uint64
}

// defaultCostModel returns the calibrated cost model.
func defaultCostModel() CostModel {
	return CostModel{
		Trap:          150,
		KernelWork:    50,
		SUDSlowPath:   46,
		SignalDeliver: 2376,
		PtraceStop:    6000,
		PtraceAccess:  800,
		SfipCheck:     32,
	}
}

// Signals used by the simulation.
const (
	SIGILL  = 4
	SIGTRAP = 5
	SIGKILL = 9
	SIGSEGV = 11
	SIGSYS  = 31
)

// SUD selector byte values (Linux: include/uapi/linux/syscall_user_dispatch.h).
const (
	SelectorAllow = 0 // SYSCALL_DISPATCH_FILTER_ALLOW
	SelectorBlock = 1 // SYSCALL_DISPATCH_FILTER_BLOCK
)

// MagicReturn is the sentinel return address used by CallGuest: a guest
// function invoked from host space returns by RET-ing to this unmapped
// address.
const MagicReturn uint64 = 0x0DEAD_BEEF_0000

// ThreadState is a thread's scheduling state.
type ThreadState uint8

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadBlocked
	ThreadExited
)

// ProcessState is a process lifecycle state.
type ProcessState uint8

// Process states.
const (
	ProcRunning ProcessState = iota
	ProcZombie
	ProcReaped
)

// sudState is per-thread Syscall User Dispatch configuration.
type sudState struct {
	on           bool
	selectorAddr uint64
	allowStart   uint64
	allowLen     uint64
}

// sigFrame records one in-flight signal delivery for rt_sigreturn.
type sigFrame struct {
	ucontextAddr uint64
	savedRSP     uint64
}

// Thread is a simulated kernel thread. Each thread runs on its own core
// (private instruction cache), matching the paper's cross-core P5
// scenarios.
type Thread struct {
	TID   int
	Proc  *Process
	Core  *cpu.Core
	State ThreadState

	sud       sudState
	sigFrames []sigFrame
	// wakeDesc is what the thread waits for while State ==
	// ThreadBlocked: data that threadReady evaluates (wakeReady), so
	// a checkpoint saves it like any other field.
	wakeDesc wakeDesc

	// entryLen/entrySite describe the in-flight trap while a syscall is
	// being serviced: entryLen is the byte length of the entry instruction
	// (SYSCALL, SYSENTER, or a rewritten call that re-trapped) and
	// entrySite its address. Both are zero outside handleSyscall and for
	// DirectSyscall, which has no guest-visible entry instruction.
	entryLen  uint64
	entrySite uint64
	// blockedLen snapshots entryLen at blockThread time, so signal
	// delivery can tell a restartable guest trap (len != 0: RIP was
	// rewound over the entry instruction) from a host-initiated block
	// (DirectSyscall: nothing to rewind, nothing to abort).
	blockedLen uint64
	// infraFrames counts nested CallGuestInfra frames: interposer
	// library sequences whose syscalls are deliberately uninterposed
	// (the SUD-allowlisted self-exemption). The oracle stream stamps
	// them origin "hostcall" so the audit layer can separate trusted
	// interposer plumbing from genuine application escapes.
	infraFrames int

	// ExtraCycles counts kernel-charged cycles (traps, signals, ptrace
	// stops) attributed to this thread, on top of Core.Cycles.
	ExtraCycles uint64
}

// Cycles returns the total cycle cost attributed to this thread:
// instructions it retired plus kernel events it suffered.
func (t *Thread) Cycles() uint64 { return t.Core.Cycles + t.ExtraCycles }

// charge adds kernel-event cycles to the thread.
func (t *Thread) charge(c uint64) { t.ExtraCycles += c }

// ExitInfo records how a process died.
type ExitInfo struct {
	Code   int
	Signal int    // non-zero if killed by a signal
	Fault  string // human-readable fault description for signal deaths
}

func (e ExitInfo) String() string {
	if e.Signal != 0 {
		return fmt.Sprintf("killed by signal %d (%s)", e.Signal, e.Fault)
	}
	return fmt.Sprintf("exited with code %d", e.Code)
}

// Process is a simulated process.
type Process struct {
	PID  int
	Path string
	Argv []string
	Env  []string

	AS      *mem.AddressSpace
	Threads []*Thread

	State ProcessState
	Exit  ExitInfo

	Parent *Process

	// Stdout and Stderr collect writes to fds 1 and 2.
	Stdout []byte
	Stderr []byte

	fds    map[int]*fd
	nextFD int

	// sudEverArmed is sticky: once any thread arms SUD the process's
	// syscall entry path is permanently slower (paper §6.2.1).
	sudEverArmed bool

	// VDSODisabled forces vdso-reachable calls through real SYSCALL
	// instructions. K23's ptracer sets it (paper §5.2).
	VDSODisabled bool

	sigHandlers map[int]sigAction // signal -> handler + sa_flags

	tracer        Tracer
	traceExecve   bool
	pkeyAllocated [mem.NumPkeys]bool
	seccomp       []*seccompFilter

	// LoaderState is opaque bookkeeping owned by internal/loader.
	LoaderState any

	// Interposer is opaque bookkeeping owned by the interposer attached
	// to this process (if any).
	Interposer any

	// Hostcalls maps hostcall ids to host functions for this process.
	Hostcalls map[int32]*Hostcall

	// nextTID generates thread ids.
	nextTID int
}

// Getenv returns the value of name in the process environment.
func (p *Process) Getenv(name string) (string, bool) {
	for _, kv := range p.Env {
		for i := 0; i < len(kv); i++ {
			if kv[i] == '=' {
				if kv[:i] == name {
					return kv[i+1:], true
				}
				break
			}
		}
	}
	return "", false
}

// SetEnv sets name=value in the process environment, replacing any
// existing entry.
func SetEnv(env []string, name, value string) []string {
	prefix := name + "="
	for i, kv := range env {
		if len(kv) >= len(prefix) && kv[:len(prefix)] == prefix {
			env[i] = prefix + value
			return env
		}
	}
	return append(env, prefix+value)
}

// GetEnv returns the value of name in an environment slice.
func GetEnv(env []string, name string) (string, bool) {
	prefix := name + "="
	for _, kv := range env {
		if len(kv) >= len(prefix) && kv[:len(prefix)] == prefix {
			return kv[len(prefix):], true
		}
	}
	return "", false
}

// MainThread returns the first live thread (the main thread under normal
// conditions).
func (p *Process) MainThread() *Thread {
	for _, t := range p.Threads {
		if t.State != ThreadExited {
			return t
		}
	}
	if len(p.Threads) > 0 {
		return p.Threads[0]
	}
	return nil
}

// Well-known hostcall ids. 1-99 are reserved for platform services
// (loader); interposer libraries use 100 and above.
const (
	HostcallDlopen  int32 = 1
	HostcallDlmopen int32 = 2
	HostcallDlsym   int32 = 3
)

// Hostcall is a host (Go) function callable from guest code via the
// HOSTCALL instruction. Cost is charged to the calling thread.
type Hostcall struct {
	Name string
	Cost uint64
	Fn   func(k *Kernel, t *Thread) error
}

// Tracer observes and controls a traced process, modelling a ptrace
// tracer. Implementations run in host space; the cost model charges the
// tracee for every stop and access, as the real mechanism does in wall
// time, syscall-exit stops included, which no tracer observes.
type Tracer interface {
	// SyscallEnter is invoked at every syscall-entry stop. Returning
	// suppress=true skips the kernel's execution of the call; the tracer
	// must then set the return value itself via SetRegs.
	SyscallEnter(k *Kernel, t *Thread, nr uint64, site uint64) (suppress bool)
	// Execve is invoked before an execve is performed (PTRACE_EVENT_EXEC
	// analogue). The tracer may rewrite the environment by returning a
	// non-nil slice.
	Execve(k *Kernel, t *Thread, path string, argv, env []string) (newEnv []string)
}

// ExecHandler performs an execve image replacement. It is installed by
// internal/loader to break the kernel<->loader dependency cycle.
type ExecHandler func(k *Kernel, t *Thread, path string, argv, env []string) error

// EventKind is the typed discriminator of kernel trace events. Observers
// (the flight recorder, the fleet event hasher, tests) switch on it
// without string comparisons; String() preserves the historical text
// labels for rendered streams.
type EventKind uint8

// Event kinds.
const (
	EvUnknown        EventKind = iota
	EvEnter                    // syscall entry (Num = nr, Args valid)
	EvExit                     // syscall exit (Num = nr, Ret valid)
	EvSignal                   // signal delivered to a user-space handler
	EvFork                     // fork (Ret = child PID)
	EvExec                     // execve (Detail = path)
	EvExitProc                 // process finished (Num = exit code, Detail = ExitInfo)
	EvSudSigsys                // SUD blocked a syscall and raised SIGSYS
	EvSeccompSigsys            // a seccomp filter raised SIGSYS
	EvInterposed               // an interposer handled a call (Detail = mechanism)
	EvChaos                    // the chaos injector perturbed a syscall (Detail = what)
	EvOracle                   // ground truth: the kernel executed a syscall (Detail = origin)
	EvResolve                  // an interposer emulated or rewrote a claimed call (Detail = mechanism)
	EvVdso                     // loader vdso decision for a fresh image (Detail = mapped/disabled)
	EvRewrite                  // binary-rewriter patched a site (Detail = genuine/misidentified[,perm-clobber])
	EvGuardMem                 // guard-structure footprint (Args[0] = reserved, Args[1] = resident bytes)
	EvStaleFetch               // stale instruction fetches observed over a process lifetime (Num = count)
	EvUnknownSyscall           // the kernel rejected an unimplemented syscall with ENOSYS (Detail = why)
	EvSfipViolation            // an SFIP policy check failed (Num = nr, Site = origin, Detail = violation)
)

// NumEventKinds bounds the EventKind enum for counting arrays and
// exhaustiveness checks (EvUnknown included).
const NumEventKinds = int(EvSfipViolation) + 1

// String returns the historical text label of the kind.
func (k EventKind) String() string {
	switch k {
	case EvEnter:
		return "enter"
	case EvExit:
		return "exit"
	case EvSignal:
		return "signal"
	case EvFork:
		return "fork"
	case EvExec:
		return "exec"
	case EvExitProc:
		return "exit-proc"
	case EvSudSigsys:
		return "sud-sigsys"
	case EvSeccompSigsys:
		return "seccomp-sigsys"
	case EvInterposed:
		return "interposed"
	case EvChaos:
		return "chaos"
	case EvOracle:
		return "oracle"
	case EvResolve:
		return "interpose-resolve"
	case EvVdso:
		return "vdso"
	case EvRewrite:
		return "rewrite"
	case EvGuardMem:
		return "guard-mem"
	case EvStaleFetch:
		return "stale-fetch"
	case EvUnknownSyscall:
		return "unknown-syscall"
	case EvSfipViolation:
		return "sfip-violation"
	default:
		return "unknown"
	}
}

// EventKindByName is the inverse of EventKind.String, for parsers
// (JSONL schema validation).
func EventKindByName(s string) (EventKind, bool) {
	for k := EvEnter; int(k) < NumEventKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return EvUnknown, false
}

// Event is a kernel trace event, for strace-like observers. Events are
// only constructed when an observer is installed (see Tracing): the
// disabled path pays a single nil-check branch per would-be event.
type Event struct {
	PID, TID int
	Kind     EventKind
	Num      uint64    // syscall number or signal number
	Site     uint64    // address of the triggering instruction
	Ret      uint64    // syscall return value (EvExit, EvFork)
	Clock    uint64    // virtual clock at emission (latency attribution)
	Seq      uint64    // kernel-global event ordinal (see Kernel.EventSeq)
	Cost     uint64    // cycles charged to the thread by this call (EvExit)
	Args     [6]uint64 // syscall arguments (EvEnter only)
	Detail   string
}

// SfipHook is the kernel-side contract of a syscall-flow-integrity
// enforcer (simulated SFIP). The kernel consults it only for
// trap-origin syscalls — raw SYSCALL instructions retired by guest
// code — never for host-infrastructure calls or DirectSyscall probes,
// mirroring real SFIP's placement on the user->kernel boundary.
//
// Check runs before the syscall body; a deny verdict makes the kernel
// return EPERM without executing it. Commit runs after a trap syscall
// completes (including the EINTR path of an interrupted blocked call)
// and advances the per-thread predecessor state. Implementations must
// be deterministic and snapshot-able: record/replay checkpoints
// capture them via SnapshotHostState/RestoreHostState, and Checkpoint
// records HashState with the snapshot, where it feeds the state hash
// (Snapshot.Hash) so divergence is caught bit-exactly.
type SfipHook interface {
	// Check validates (nr, site) against the policy given the thread's
	// current predecessor state. violation is "" when allowed; deny
	// requests the kernel suppress the call with EPERM (enforce mode).
	Check(pid, tid int, nr, site uint64) (violation string, deny bool)
	// Commit records nr as the thread's new predecessor.
	Commit(pid, tid int, nr uint64)
	// Enforcing reports whether denials are active; the kernel charges
	// Cost.SfipCheck per checked syscall only in this mode.
	Enforcing() bool
	// SnapshotHostState/RestoreHostState/HashState integrate the
	// enforcer's mutable state with world checkpoints (snapshot.go);
	// HashState is taken when the checkpoint is.
	SnapshotHostState() any
	RestoreHostState(any)
	HashState() uint64
}

// Kernel is the simulated operating system instance.
type Kernel struct {
	FS   *vfs.FS
	Cost CostModel

	// Quantum is the scheduler preemption quantum in instructions.
	Quantum int

	// Sfip, if non-nil, is the in-kernel syscall-flow-integrity policy
	// (simulated SFIP, §2h): every completed trap-origin syscall is
	// checked against a learned origin set and transition digraph before
	// execution. The disabled path is a single nil-check in
	// executeSyscall, the same cost contract as the event stream.
	Sfip SfipHook

	// ProfileHook, if non-nil, receives one (tid, rip) sample every
	// profileEvery retired instructions. Sampling is driven by the
	// virtual clock, so it is deterministic: the same machine produces
	// the same samples regardless of host scheduling or worker count.
	ProfileHook func(tid int, rip uint64)

	// DecodeCacheOff disables the per-core decoded-instruction cache on
	// every core this kernel creates (NewThread and execve Rebind). The
	// differential test harness flips it to prove cached and uncached
	// execution are bit-identical.
	DecodeCacheOff bool

	// JITOff disables the trace-JIT superblock engine on every core this
	// kernel creates. The three-way differential battery flips it to
	// prove jitted and interpreted execution are bit-identical (JIT is
	// on by default, like the decode cache).
	JITOff bool

	// Trace, if non-nil, is shared by every core this kernel creates
	// from then on (NewThread, execve Rebind), which fold each retired
	// instruction into it: the machine's trace in scheduling order.
	Trace *cpu.TraceHash

	// lines is the decoded-line table this kernel's cores share.
	lines cpu.Lines

	// Exec is the execve image-replacement hook (set by internal/loader).
	Exec ExecHandler

	procs   map[int]*Process
	order   []int // every PID ever created, in creation order
	nextPID int
	// live is the run queue: the running processes in PID creation
	// order, plus those that stopped since Run last compacted it.
	// NewProcess and fork append to it and Restore rebuilds it, so a
	// round costs the live processes, not every PID ever created.
	live []*Process
	// reap is set when a process stops: Run drops the stopped processes
	// from live and from vvars at the end of that round, or at the start
	// of its next round for a stop outside Run.
	reap bool

	// profileEvery is the sampling period in virtual-clock ticks
	// (0 = profiling off); profileNext is the next sample deadline.
	profileEvery uint64
	profileNext  uint64

	net   *netStack
	vvars []vvarReg

	// chaos, when non-nil, is the seeded fault injector (WithChaos).
	chaos *chaosState

	// events and phases are the sinks of the event stream and the phase
	// side-stream, in subscription order (OnEvent, OnPhase). ev and pm
	// hold the event or mark being dispatched: every sink receives a
	// pointer to them, valid only for the call.
	events []func(*Event)
	phases []func(*PhaseMark)
	ev     Event
	pm     PhaseMark

	// eventSeq numbers emitted events. It is stamped by the kernel (not
	// per-observer) so every sink — the flight recorder, the auditor,
	// the record/replay recorder — agrees on one global ordinal per
	// event, regardless of when each sink subscribed.
	// It only advances while an observer is installed (emission is
	// guarded by Tracing()), which is identical across a recorded run
	// and its replays.
	eventSeq uint64

	// phaseSeq numbers phase marks on their own side-stream ordinal (it
	// never feeds eventSeq; see phase.go). It only advances while a
	// phase observer is installed, which is identical across a recorded
	// run and a span-traced replay of it.
	phaseSeq uint64

	// StopAtSeq, when non-zero, asks the scheduler to return from Run at
	// the first quantum boundary after an event with Seq >= StopAtSeq has
	// been emitted. Execution up to the stop is byte-identical to an
	// uninterrupted run (the stop lands between instructions and is
	// invisible to the guest), which is what lets the rr seek engine halt
	// a replay precisely at a target event ordinal.
	StopAtSeq uint64
	stopHit   bool

	// VClock is a monotone virtual clock advanced as threads execute;
	// it backs the vvar page and gettimeofday.
	VClock uint64
}

// Option configures a kernel at construction time. Options are the only
// sanctioned way to vary kernel-wide behaviour: the package keeps no
// mutable package-level state, so independent Kernel instances never
// alias and can run on concurrent goroutines (the fleet executor's
// no-shared-state invariant).
type Option func(*Kernel)

// WithDecodeCacheOff disables (or re-enables) the per-core
// decoded-instruction cache on every core the kernel creates. The
// differential test harnesses use it to prove cached and uncached
// execution are bit-identical, including for worlds built indirectly
// (the pitfall PoCs thread it through their constructors).
func WithDecodeCacheOff(off bool) Option {
	return func(k *Kernel) { k.DecodeCacheOff = off }
}

// WithJITOff disables (or re-enables) the trace-JIT superblock engine
// on every core the kernel creates, mirroring WithDecodeCacheOff. The
// differential harnesses use it for the jit-on/cache-on/cache-off
// three-way battery; everything else should leave the JIT on.
func WithJITOff(off bool) Option {
	return func(k *Kernel) { k.JITOff = off }
}

// WithVClock seeds the kernel's virtual clock. The fleet executor uses
// it to give each simulated machine a distinct — but deterministic —
// time base, so per-machine getrandom/gettimeofday streams differ
// reproducibly.
func WithVClock(start uint64) Option {
	return func(k *Kernel) { k.VClock = start }
}

// New returns a kernel with the default cost model and an empty
// filesystem, then applies the given options.
func New(opts ...Option) *Kernel {
	k := &Kernel{
		FS:      vfs.New(),
		Cost:    defaultCostModel(),
		Quantum: 50,
		procs:   make(map[int]*Process),
		nextPID: 1,
		lines:   make(cpu.Lines),
		net:     newNetStack(),
	}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// NewProcess creates an empty process (no memory mapped, no threads).
// Callers (the loader) populate it and then call NewThread.
func (k *Kernel) NewProcess(path string, argv, env []string) *Process {
	p := &Process{
		PID:         k.nextPID,
		Path:        path,
		Argv:        append([]string(nil), argv...),
		Env:         append([]string(nil), env...),
		AS:          mem.NewAddressSpace(),
		fds:         make(map[int]*fd),
		nextFD:      3,
		sigHandlers: make(map[int]sigAction),
		Hostcalls:   make(map[int32]*Hostcall),
		nextTID:     1,
	}
	k.nextPID++
	k.addProcess(p)
	return p
}

// addProcess enters a new process in the process table, the creation
// order and the run queue.
func (k *Kernel) addProcess(p *Process) {
	k.procs[p.PID] = p
	k.order = append(k.order, p.PID)
	k.live = append(k.live, p)
	k.registerProcMaps(p)
}

// stopped reports whether p has left ProcRunning.
func stopped(p *Process) bool { return p.State != ProcRunning }

// NewThread creates a thread in p with the given initial context.
func (k *Kernel) NewThread(p *Process, ctx cpu.Context) *Thread {
	t := &Thread{
		TID:   p.PID*100 + p.nextTID,
		Proc:  p,
		Core:  cpu.NewCore(p.AS),
		State: ThreadRunnable,
	}
	t.Core.DecodeCacheOff = k.DecodeCacheOff
	t.Core.JITOff = k.JITOff
	t.Core.Trace, t.Core.TID, t.Core.Lines = k.Trace, t.TID, k.lines
	p.nextTID++
	t.Core.Ctx = ctx
	p.Threads = append(p.Threads, t)
	return t
}

// Process returns the process with the given pid.
func (k *Kernel) Process(pid int) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Processes returns all processes sorted by pid.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// DecodeCacheStats sums the decoded-instruction cache statistics over
// every thread of every process.
func (k *Kernel) DecodeCacheStats() cpu.DecodeCacheStats {
	var s cpu.DecodeCacheStats
	for _, p := range k.Processes() {
		for _, t := range p.Threads {
			s.Add(t.Core.DecodeStats)
		}
	}
	return s
}

// JITStats sums the superblock-engine statistics over every thread of
// every process.
func (k *Kernel) JITStats() cpu.JITStats {
	var s cpu.JITStats
	for _, p := range k.Processes() {
		for _, t := range p.Threads {
			s.Add(t.Core.JITStats)
		}
	}
	return s
}

// RegisterHostcall installs a hostcall for process p.
func (k *Kernel) RegisterHostcall(p *Process, id int32, h *Hostcall) {
	p.Hostcalls[id] = h
}

// AttachTracer attaches a tracer to p. Only one tracer per process.
func (k *Kernel) AttachTracer(p *Process, tr Tracer) error {
	if p.tracer != nil {
		return fmt.Errorf("kernel: process %d already traced", p.PID)
	}
	p.tracer = tr
	return nil
}

// DetachTracer removes p's tracer.
func (k *Kernel) DetachTracer(p *Process) {
	p.tracer = nil
}

// Tracer returns p's tracer, if any.
func (k *Kernel) Tracer(p *Process) Tracer { return p.tracer }

// ResetSignalHandlers drops all installed handlers (execve semantics).
func (p *Process) ResetSignalHandlers() { p.sigHandlers = make(map[int]sigAction) }

// ClearSUD disables Syscall User Dispatch on the thread and drops any
// pending signal frames (execve semantics).
func (t *Thread) ClearSUD() {
	t.sud = sudState{}
	t.sigFrames = nil
}

// Rebind attaches the thread to its process's (possibly replaced) address
// space with a fresh core (execve semantics).
func (t *Thread) Rebind() {
	old := t.Core
	t.Core = cpu.NewCore(t.Proc.AS)
	t.Core.Cycles, t.Core.Insts = old.Cycles, old.Insts
	t.Core.DecodeCacheOff = old.DecodeCacheOff
	t.Core.JITOff = old.JITOff
	t.Core.DecodeStats = old.DecodeStats
	t.Core.JITStats = old.JITStats
	t.Core.Trace, t.Core.TID, t.Core.Lines = old.Trace, old.TID, old.Lines
}

type vvarReg struct {
	p    *Process
	addr uint64
}

// RegisterVvar records a vvar page the kernel keeps updated with the
// virtual wall clock (seconds at +0, nanoseconds at +8).
func (k *Kernel) RegisterVvar(p *Process, addr uint64) {
	k.vvars = append(k.vvars, vvarReg{p: p, addr: addr})
}

// dropStopped removes the stopped processes from the run queue and
// their vvar registrations. Only Restore runs a process again, and it
// rebuilds both.
func (k *Kernel) dropStopped() {
	k.live = slices.DeleteFunc(k.live, stopped)
	k.vvars = slices.DeleteFunc(k.vvars, func(v vvarReg) bool { return stopped(v.p) })
	k.reap = false
}

// updateVvars refreshes the registered vvar pages, all of running
// processes once dropStopped has run.
func (k *Kernel) updateVvars() {
	sec := k.VClock / CyclesPerSecond
	nsec := (k.VClock % CyclesPerSecond) * 1_000_000_000 / CyclesPerSecond
	for _, v := range k.vvars {
		_ = v.p.AS.KStoreU64(v.addr, sec)
		_ = v.p.AS.KStoreU64(v.addr+8, nsec)
	}
}

// ThreadByTID returns the thread with the given tid, if any.
func (p *Process) ThreadByTID(tid int) *Thread {
	for _, t := range p.Threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// DirectSyscall services nr synchronously on behalf of t, bypassing the
// trap path entirely (no SUD dispatch, no tracer stops). In-process
// interposers use it to emulate system calls — most importantly clone,
// whose child would otherwise materialize inside the interposer's handler
// with a fresh, frameless stack. The full trap cost is still charged.
func (k *Kernel) DirectSyscall(t *Thread, nr uint64, args [6]uint64) uint64 {
	t.charge(k.Cost.Trap)
	if t.Proc.sudEverArmed {
		t.charge(k.Cost.SUDSlowPath)
	}
	// A direct call has no guest entry instruction: clear the in-flight
	// trap record so chaos injection and EINTR abort logic stay off, and
	// restore it afterwards (tracer hooks issue DirectSyscalls from
	// inside handleSyscall).
	savedLen, savedSite := t.entryLen, t.entrySite
	t.entryLen, t.entrySite = 0, 0
	ret, _ := k.executeSyscall(t, nr, args, 0)
	t.entryLen, t.entrySite = savedLen, savedSite
	return ret
}

// TraceePoke writes tracee memory on behalf of a tracer.
func (k *Kernel) TraceePoke(t *Thread, addr uint64, b []byte) error {
	t.charge(k.Cost.PtraceAccess)
	return t.Proc.AS.KStore(addr, b)
}

// TraceeRegs returns a pointer to the tracee's register context
// (PTRACE_GETREGS/SETREGS analogue), charging one access.
func (k *Kernel) TraceeRegs(t *Thread) *cpu.Context {
	t.charge(k.Cost.PtraceAccess)
	return &t.Core.Ctx
}

// Tracing reports whether an event sink is subscribed. Emit sites
// check it BEFORE constructing the Event, so the disabled path neither
// allocates nor formats Detail strings — the single guarded branch the
// observability cost contract requires.
func (k *Kernel) Tracing() bool { return len(k.events) != 0 }

// OnEvent subscribes fn to the event stream. Sinks run in subscription
// order. Each receives a pointer to kernel-owned storage that is valid
// only for the call: a sink that keeps anything must copy it, and a
// sink must not emit.
func (k *Kernel) OnEvent(fn func(*Event)) { k.events = append(k.events, fn) }

// AddEventHook subscribes fn to the event stream by value. It is kept
// only because cmd/k23bench calls it, and that harness's sources stay
// fixed so its timings compare across versions; new code uses OnEvent.
func (k *Kernel) AddEventHook(fn func(Event)) {
	k.OnEvent(func(ev *Event) { fn(*ev) })
}

// emit stamps the virtual clock and the global event ordinal onto the
// event and hands it to every sink. Callers must have checked Tracing()
// first (lazy construction).
func (k *Kernel) emit(ev Event) {
	ev.Clock = k.VClock
	ev.Seq = k.eventSeq
	k.eventSeq++
	if k.StopAtSeq != 0 && ev.Seq >= k.StopAtSeq {
		k.stopHit = true
	}
	k.ev = ev
	for _, fn := range k.events {
		fn(&k.ev)
	}
}

// EventSeq returns the number of events emitted so far — equivalently,
// the Seq the next emitted event will carry.
func (k *Kernel) EventSeq() uint64 { return k.eventSeq }

// EmitInterposed publishes a mechanism-attribution event on behalf of an
// interposer layer: syscall nr at site was handled by mechanism mech
// ("rewrite", "sud", "ptrace"). Nil-cost when no observer is installed.
func (k *Kernel) EmitInterposed(t *Thread, mech string, nr, site uint64) {
	if !k.Tracing() {
		return
	}
	k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvInterposed, Num: nr, Site: site, Detail: mech})
}

// EmitResolve publishes a claim-resolution event: the interposer's hook
// emulated the claimed call in-process (emulated=true; no kernel oracle
// will follow) or rewrote its number to nr before forwarding. The audit
// joiner uses it to retire or update the pending attribution claim.
func (k *Kernel) EmitResolve(t *Thread, mech string, nr, site uint64, emulated bool) {
	if !k.Tracing() {
		return
	}
	var ret uint64
	if emulated {
		ret = 1
	}
	k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvResolve, Num: nr, Site: site, Ret: ret, Detail: mech})
}

// EmitVdso publishes the loader's vdso decision for a freshly set-up
// image: Detail is "mapped" (the P2b structural blind spot exists) or
// "disabled" (the interposer asked for WithDisableVDSO).
func (k *Kernel) EmitVdso(p *Process, detail string) {
	if !k.Tracing() {
		return
	}
	k.emit(Event{PID: p.PID, Kind: EvVdso, Detail: detail})
}

// EmitRewrite publishes one binary-rewrite decision at site. Detail is
// "genuine" or "misidentified", with ",perm-clobber" appended when the
// rewriter lost the original page permission (P5).
func (k *Kernel) EmitRewrite(t *Thread, site uint64, detail string) {
	if !k.Tracing() {
		return
	}
	k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvRewrite, Site: site, Detail: detail})
}

// EmitGuardMem publishes the current guard-structure footprint of an
// interposer (bitmap, robin set): Args[0] reserved, Args[1] resident.
func (k *Kernel) EmitGuardMem(p *Process, kind string, reserved, resident uint64) {
	if !k.Tracing() {
		return
	}
	ev := Event{PID: p.PID, Kind: EvGuardMem, Detail: kind}
	ev.Args[0], ev.Args[1] = reserved, resident
	k.emit(ev)
}

// SetProfile installs (or, with every == 0, removes) the sampling
// profiler hook. The first sample fires `every` virtual-clock ticks
// from now.
func (k *Kernel) SetProfile(every uint64, hook func(tid int, rip uint64)) {
	if every == 0 || hook == nil {
		k.profileEvery, k.ProfileHook = 0, nil
		return
	}
	k.profileEvery = every
	k.profileNext = k.VClock + every
	k.ProfileHook = hook
}

// profileTick fires due samples for thread t. Callers guard on
// profileEvery != 0 so the disabled path is one branch.
func (k *Kernel) profileTick(t *Thread) {
	for k.VClock >= k.profileNext {
		k.profileNext += k.profileEvery
		k.ProfileHook(t.TID, t.Core.Ctx.RIP)
	}
}

// threadReady reports whether t can be scheduled, unblocking it if its
// wake condition has become true.
func (k *Kernel) threadReady(t *Thread) bool {
	switch t.State {
	case ThreadRunnable:
		return true
	case ThreadBlocked:
		if k.wakeReady(t) {
			t.State = ThreadRunnable
			if len(k.phases) != 0 {
				k.EmitPhase(t, PhWake, t.Core.Ctx.R[cpu.RAX], t.entrySite, t.wakeDesc.describe())
			}
			t.wakeDesc = wakeDesc{}
			return true
		}
		return false
	default:
		return false
	}
}

// Run drives the scheduler in rounds until no thread is runnable or
// maxInsts instructions have been retired, and returns the count
// retired. maxInsts is checked only when a round ends, so a call may
// retire one round (each ready thread's quantum) past it, and Run(a);
// Run(b) schedules exactly as Run(a+b). A StopAtSeq stop still ends a
// round early; every caller Restores a checkpoint after such a seek.
// Processes and threads created mid-round wait for the next round. Run
// must not be re-entered from a hook or hostcall.
func (k *Kernel) Run(maxInsts uint64) uint64 {
	var retired uint64
	for retired < maxInsts {
		progress := false
		if k.reap {
			k.dropStopped()
		}
		k.updateVvars()
		// A process created during the round is appended past queued
		// and waits for the next round; nothing else changes live
		// mid-round.
		for i, queued := 0, len(k.live); i < queued; i++ {
			p := k.live[i]
			if stopped(p) {
				continue
			}
			// The range takes p.Threads once: a thread cloned
			// mid-round is appended past it, and an execve mid-round
			// replaces the slice whole, so neither joins this round.
			for _, t := range p.Threads {
				if !k.threadReady(t) {
					continue
				}
				n := k.runThread(t, k.Quantum)
				retired += n
				if n > 0 {
					progress = true
				}
				if k.stopHit {
					k.stopHit = false
					return retired
				}
			}
		}
		if k.reap {
			k.dropStopped()
		}
		if !progress {
			return retired
		}
	}
	return retired
}

// Slice is the instruction count drive loops hand to Run per call. No
// schedule depends on it, since Run cuts only at round ends.
const Slice = 20_000

// RunUntilExit runs the scheduler in Slice slices until process p
// leaves ProcRunning or the instruction budget is exhausted. It returns
// an error on budget exhaustion (which may report up to one round past
// maxInsts) or deadlock. Each stop check is called before every slice;
// a non-nil error ends the run with that error.
func (k *Kernel) RunUntilExit(p *Process, maxInsts uint64, stop ...func() error) error {
	var retired uint64
	for p.State == ProcRunning {
		for _, s := range stop {
			if err := s(); err != nil {
				return fmt.Errorf("kernel: run stopped after %d instructions: %w", retired, err)
			}
		}
		if retired >= maxInsts {
			return fmt.Errorf("kernel: budget exhausted after %d instructions (pid %d still running)", retired, p.PID)
		}
		n := k.Run(min(Slice, maxInsts-retired))
		retired += n
		if n == 0 && p.State == ProcRunning {
			return fmt.Errorf("kernel: deadlock: pid %d has no runnable threads", p.PID)
		}
	}
	return nil
}

// runThread runs t for up to quantum instructions through Core.Run,
// which dispatches hot code via superblocks, and handles the stop that
// ends the slice. Returns instructions retired. The virtual clock is
// advanced in bulk by the retired-instruction count, which is
// observationally identical because the clock is only read at kernel
// entries — and a stop ends the slice either way.
//
// With the sampling profiler armed, Run is also cut at each sample
// deadline (at least one instruction per cut), so every sample is taken
// right after the instruction that reached its deadline, at the RIP one
// Step at a time would have sampled.
func (k *Kernel) runThread(t *Thread, quantum int) uint64 {
	if t.State != ThreadRunnable || t.Proc.State != ProcRunning {
		return 0
	}
	var retired uint64
	for {
		n := uint64(quantum) - retired
		if k.profileEvery != 0 {
			n = min(n, max(k.profileNext, k.VClock+1)-k.VClock)
		}
		before := t.Core.Insts
		stop := t.Core.Run(int(n))
		ran := t.Core.Insts - before
		retired += ran
		k.VClock += ran
		if k.profileEvery != 0 {
			k.profileTick(t)
		}
		if stop.Kind != cpu.StopNone {
			k.handleStop(t, stop)
			return retired
		}
		if retired >= uint64(quantum) {
			return retired
		}
	}
}

// handleStop services a non-trivial CPU stop.
func (k *Kernel) handleStop(t *Thread, stop cpu.Stop) {
	switch stop.Kind {
	case cpu.StopSyscall, cpu.StopSysenter:
		t.Core.FlushICache() // kernel entry serializes
		k.handleSyscall(t, stop.Site)
	case cpu.StopHostcall:
		k.handleHostcall(t, stop.HostcallID)
	case cpu.StopFault:
		k.deliverFaultSignal(t, SIGSEGV, stop)
	case cpu.StopIll:
		k.deliverFaultSignal(t, SIGILL, stop)
	case cpu.StopTrap:
		k.deliverFaultSignal(t, SIGTRAP, stop)
	case cpu.StopHalt:
		k.exitThread(t, 0)
	}
}

// handleHostcall dispatches a HOSTCALL instruction.
func (k *Kernel) handleHostcall(t *Thread, id int32) {
	h, ok := t.Proc.Hostcalls[id]
	if !ok {
		k.killProcess(t.Proc, SIGILL, fmt.Sprintf("unknown hostcall %d", id))
		return
	}
	t.charge(h.Cost)
	if err := h.Fn(k, t); err != nil {
		k.killProcess(t.Proc, SIGILL, fmt.Sprintf("hostcall %s: %v", h.Name, err))
	}
}

// exitThread terminates a thread; when the last thread exits, the process
// becomes a zombie.
func (k *Kernel) exitThread(t *Thread, code int) {
	t.State = ThreadExited
	for _, other := range t.Proc.Threads {
		if other.State != ThreadExited {
			return
		}
	}
	k.finishProcess(t.Proc, ExitInfo{Code: code})
}

// killProcess terminates all threads with a signal death.
func (k *Kernel) killProcess(p *Process, sig int, detail string) {
	for _, t := range p.Threads {
		t.State = ThreadExited
	}
	k.finishProcess(p, ExitInfo{Signal: sig, Fault: detail})
}

func (k *Kernel) finishProcess(p *Process, info ExitInfo) {
	if p.State != ProcRunning {
		return
	}
	p.State = ProcZombie
	p.Exit = info
	k.reap = true
	if k.Tracing() {
		// Detail formatting (info.String) is deliberately inside the
		// guard: process exit is not hot, but the contract — no
		// formatting without an observer — is uniform. Ret carries the
		// death signal so stream consumers need not parse Detail.
		var stale uint64
		for _, t := range p.Threads {
			stale += t.Core.CMCViolations
		}
		if stale != 0 {
			k.emit(Event{PID: p.PID, Kind: EvStaleFetch, Num: stale})
		}
		k.emit(Event{PID: p.PID, Kind: EvExitProc, Num: uint64(info.Code), Ret: uint64(info.Signal), Detail: info.String()})
	}
}

// ErrGuestWouldBlock is returned by CallGuest when the guest code issued
// a blocking system call (empty-backlog accept, data-less read). The
// thread's context is restored to its pre-call state; the caller decides
// how to retry — SUD-style interposers rewind the application to
// re-execute the trapped syscall after sigreturn.
var ErrGuestWouldBlock = fmt.Errorf("kernel: guest call would block")

// CallGuest invokes guest code at entry on thread t with the given
// argument registers, runs until the guest RETs to MagicReturn, and
// returns RAX. It is used by the loader to run startup syscall stubs and
// init functions, and by interposer host logic to execute guest
// sequences.
//
// The guest call runs under full kernel semantics: SUD, ptrace and signal
// delivery all apply.
//
// CallGuestInfra is the variant interposer host logic must use for its
// own library sequences (init-time gate calls, do-syscall stubs):
// syscalls executed inside the frame are stamped origin "hostcall" in
// the oracle event stream, marking them as the mechanism's documented
// self-exemption rather than organic application execution. The loader
// keeps using plain CallGuest — its startup stubs model ld.so activity,
// which IS organic guest execution.
func (k *Kernel) CallGuestInfra(t *Thread, entry uint64, args [6]uint64) (uint64, error) {
	t.infraFrames++
	defer func() {
		// Floor at zero: an execve inside the frame replaced the image
		// and reset the count — the stale unwind must not go negative.
		if t.infraFrames > 0 {
			t.infraFrames--
		}
	}()
	return k.CallGuest(t, entry, args)
}

func (k *Kernel) CallGuest(t *Thread, entry uint64, args [6]uint64) (uint64, error) {
	saved := t.Core.Ctx
	savedState := t.State
	t.State = ThreadRunnable

	ctx := &t.Core.Ctx
	for i, a := range args {
		ctx.SetArg(i, a)
	}
	// Push the magic return address.
	ctx.R[cpu.RSP] -= 8
	if err := t.Proc.AS.KStoreU64(ctx.R[cpu.RSP], MagicReturn); err != nil {
		t.Core.Ctx = saved
		t.State = savedState
		return 0, fmt.Errorf("kernel: CallGuest stack push: %w", err)
	}
	ctx.RIP = entry

	const budget = 50_000_000
	for i := 0; i < budget; i++ {
		if t.Proc.State != ProcRunning {
			return 0, fmt.Errorf("kernel: CallGuest: process died: %s", t.Proc.Exit)
		}
		if t.State == ThreadBlocked {
			if !k.threadReady(t) {
				// Restore the pre-call context and report: the caller
				// converts this into an application-level retry.
				t.Core.Ctx = saved
				t.State = savedState
				t.wakeDesc = wakeDesc{}
				return 0, ErrGuestWouldBlock
			}
		}
		if ctx.RIP == MagicReturn {
			ret := ctx.R[cpu.RAX]
			t.Core.Ctx = saved
			t.State = savedState
			return ret, nil
		}
		stop := t.Core.Step()
		k.VClock++
		if k.profileEvery != 0 {
			k.profileTick(t)
		}
		if stop.Kind == cpu.StopNone {
			continue
		}
		if stop.Kind == cpu.StopFault && ctx.RIP == MagicReturn {
			// Fetch fault at the sentinel: the guest returned.
			ret := ctx.R[cpu.RAX]
			t.Core.Ctx = saved
			t.State = savedState
			return ret, nil
		}
		k.handleStop(t, stop)
	}
	return 0, fmt.Errorf("kernel: CallGuest: budget exhausted at %#x", ctx.RIP)
}
