package kernel

// Phase side-stream: fine-grained lifecycle marks for the causal span
// tracer (internal/span). Phase marks are deliberately NOT part of the
// main event stream: they carry their own ordinal counter and their own
// sinks, so enabling span tracing never advances eventSeq — recordings,
// checkpoint metadata (CkptMeta.Seq), audit ledgers, and every
// seq-anchored golden stay bit-identical with spans on or off. That
// invariant is what makes replay-derived retroactive traces provably
// equal to live-traced runs. The cost contract matches the main stream:
// every emission site pays a single branch when no sink is subscribed.

// Phase identifies one fine-grained stage of a syscall, signal, or
// interposer-handler lifecycle.
type Phase int

const (
	PhUnknown Phase = iota
	// Kernel lifecycle phases.
	PhTrap    // handleSyscall accepted a guest trap
	PhKernel  // service routine entered
	PhBlock   // thread parked on a wake predicate
	PhWake    // wake predicate became true; thread unparked
	PhReturn  // syscall returned toward the guest
	PhRestart // SA_RESTART kept the rewound RIP (transparent restart)
	PhEINTR   // blocked call aborted with -EINTR
	PhSignal  // signal frame pushed, control transferred to handler
	PhSigret  // rt_sigreturn popped the frame
	// Interposer lifecycle phases.
	PhHandler    // interposer handler entry
	PhHook       // user hook dispatched
	PhEmulate    // hook emulated the call in-process
	PhForward    // handler forwards the call to the kernel
	PhHandlerRet // handler hands control back to application code
	// NumPhases is the number of phases, for exhaustiveness guards.
	NumPhases = int(PhHandlerRet) + 1
)

// phaseNames is the interned naming table; String never allocates.
var phaseNames = [NumPhases]string{
	PhUnknown:    "unknown",
	PhTrap:       "trap",
	PhKernel:     "kernel",
	PhBlock:      "block",
	PhWake:       "wake",
	PhReturn:     "return",
	PhRestart:    "restart",
	PhEINTR:      "eintr",
	PhSignal:     "signal",
	PhSigret:     "sigreturn",
	PhHandler:    "handler",
	PhHook:       "hook",
	PhEmulate:    "emulate",
	PhForward:    "forward",
	PhHandlerRet: "handler-return",
}

func (p Phase) String() string {
	if p >= 0 && int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName is the inverse of Phase.String, for schema validation.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name && Phase(i) != PhUnknown {
			return Phase(i), true
		}
	}
	return PhUnknown, false
}

// PhaseMark is one phase-stream record. Clock is the global virtual
// clock (cross-thread ordering, blocking-edge latency); Cycles is the
// emitting thread's cycle account (instruction cycles plus kernel
// charges), the timeline phase-cost attribution sums over — kernel
// work is charged, not stepped, so VClock deltas alone would read as
// zero inside handleSyscall.
type PhaseMark struct {
	Seq    uint64
	Clock  uint64
	Cycles uint64
	PID    int
	TID    int
	Phase  Phase
	Num    uint64 // syscall or signal number, when known
	Site   uint64 // trap/handler site, when known
	Detail string // mechanism name for handler phases, wake reason for PhWake
}

// OnPhase subscribes fn to the phase side-stream, under the same rules
// as OnEvent: sinks run in subscription order, the mark is valid only
// for the call, and a sink must not emit.
func (k *Kernel) OnPhase(fn func(*PhaseMark)) { k.phases = append(k.phases, fn) }

// EmitPhase publishes one phase mark on behalf of t. Nil-cost when no
// phase sink is subscribed (the single guarded branch, mirroring the
// main event stream's contract).
func (k *Kernel) EmitPhase(t *Thread, ph Phase, nr, site uint64, detail string) {
	if len(k.phases) == 0 {
		return
	}
	k.pm = PhaseMark{
		Seq:    k.phaseSeq,
		Clock:  k.VClock,
		Cycles: t.Cycles(),
		PID:    t.Proc.PID,
		TID:    t.TID,
		Phase:  ph,
		Num:    nr,
		Site:   site,
		Detail: detail,
	}
	k.phaseSeq++
	for _, fn := range k.phases {
		fn(&k.pm)
	}
}

// describe renders a wake predicate for PhWake marks and span
// blocking-edge attribution.
func (d wakeDesc) describe() string {
	switch d.kind {
	case wakeAcceptFD:
		return "accept"
	case wakeConnReadFD:
		return "conn-read"
	case wakeWait4PID:
		return "wait4"
	default:
		return "none"
	}
}
