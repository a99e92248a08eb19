// Package probe is K23's programmable dynamic-tracing engine: a tiny
// bpftrace-style DSL compiled to closures that ride the kernel's
// existing observability side-streams (the chained event hook and the
// phase-mark hook). It turns the simulator into its own DTrace — and,
// because those side-streams are provably non-perturbing, the same
// probe program runs live or retroactively over an rr recording with
// byte-identical output.
//
// A program is one or more probes:
//
//	syscall:write:exit /errno == 0/ { hist(cycles) by (mech) }
//	sched:block { count() by (name) }
//	chaos:inject { emit() }
//
// Each probe names an attach point, an optional predicate between
// slashes, and a brace-wrapped action list. Aggregating actions
// (count/sum/min/max/hist) fold matching events into cells keyed by a
// `by (...)` field tuple; emit() streams the matching events into the
// probe's own flight-recorder ring. All state is per-Engine (one
// engine per machine, mirroring the fleet's no-shared-state
// invariant); Snapshots merge commutatively and export as canonical
// hashed JSONL, so byte equality of two exports is result equality.
//
// Design rules (ISSUE 10), matching the rest of the observability
// stack:
//
//   - Zero guest cycles: probes observe the streams, they never charge
//     the virtual clock or advance eventSeq. Disabled cost is the
//     kernel's existing single nil-check per emission site.
//   - No allocation on the hot path: predicates and actions are
//     compiled once (Compile) and shared read-only by every engine;
//     per-event work is a per-kind dispatch plus cell upserts keyed in
//     a reused buffer, so only a first-seen cell allocates
//     (TestEngineSteadyStateAllocs).
//   - Deterministic output: cells are sorted at snapshot time by
//     (probe, action, key tuple); nothing reads wall clock or leaks
//     map order.
package probe

import (
	"fmt"

	"k23/internal/kernel"
)

// MetricsProgram is the built-in program behind obsv's per-syscall
// metrics (the Tables 5/6 cost numbers): per-syscall and per-process
// cost histograms, errno counts, interposition-mechanism attribution
// and per-kind event counts. obsv renders its snapshot, addressed by
// (probe, action) position, as a MetricsSnapshot — keep the two in step.
const MetricsProgram = `syscall:*:exit { hist(cycles) by (nr); hist(cycles) by (pid) }
syscall:*:exit /errno != 0/ { count() by (nr); count() by (pid) }
event:interposed { count() by (detail) }
event:sud-sigsys { count() }
event:seccomp-sigsys { count() }
event:* { count() by (kind) }`

// Field identifies one event attribute a predicate, aggregation
// argument, or key tuple can reference.
type Field int

const (
	FNone     Field = iota
	FNr             // syscall (or signal) number
	FErrno          // decoded errno on syscall exit, 0 otherwise
	FTid            // thread id
	FPid            // process id
	FRet            // raw return value, as a signed integer
	FCycles         // charged cycles (exit cost / phase cycle stamp)
	FVclock         // global virtual clock
	FSite           // trap or handler site
	FMech           // interposition mechanism name
	FName           // syscall name (obsv naming table)
	FPhase          // phase-mark name, "" on event-stream probes
	FKind           // event-kind name, "phase" on phase-stream probes
	FDetail         // raw event/mark detail string
	NumFields = int(FDetail) + 1
)

// fieldNames is the interned spelling table; it doubles as the parser's
// keyword set.
var fieldNames = [NumFields]string{
	FNone: "", FNr: "nr", FErrno: "errno", FTid: "tid", FPid: "pid",
	FRet: "ret", FCycles: "cycles", FVclock: "vclock", FSite: "site",
	FMech: "mech", FName: "name", FPhase: "phase", FKind: "kind",
	FDetail: "detail",
}

func (f Field) String() string {
	if f > 0 && int(f) < NumFields {
		return fieldNames[f]
	}
	return "?"
}

// FieldByName is the inverse of Field.String.
func FieldByName(name string) (Field, bool) {
	for i := 1; i < NumFields; i++ {
		if fieldNames[i] == name {
			return Field(i), true
		}
	}
	return FNone, false
}

// IsString reports whether the field carries a string value (string
// fields compare only with == and != against string operands).
func (f Field) IsString() bool {
	switch f {
	case FMech, FName, FPhase, FKind, FDetail:
		return true
	}
	return false
}

// AggFunc is one probe action function.
type AggFunc int

const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggHist
	AggEmit
	NumAggFuncs = int(AggEmit) + 1
)

var aggNames = [NumAggFuncs]string{
	AggNone: "", AggCount: "count", AggSum: "sum", AggMin: "min",
	AggMax: "max", AggHist: "hist", AggEmit: "emit",
}

func (a AggFunc) String() string {
	if a > 0 && int(a) < NumAggFuncs {
		return aggNames[a]
	}
	return "?"
}

// AggFuncByName is the inverse of AggFunc.String.
func AggFuncByName(name string) (AggFunc, bool) {
	for i := 1; i < NumAggFuncs; i++ {
		if aggNames[i] == name {
			return AggFunc(i), true
		}
	}
	return AggNone, false
}

// needsArg reports whether the function takes a value expression.
func (a AggFunc) needsArg() bool {
	switch a {
	case AggSum, AggMin, AggMax, AggHist:
		return true
	}
	return false
}

// Attach is a parsed attach point: a provider plus one or two
// colon-separated parts (parts may be the wildcard "*").
type Attach struct {
	Provider string // syscall | phase | signal | chaos | sched | sfip | event
	Part1    string // name pattern / mech pattern / verb
	Part2    string // entry|exit / phase pattern ("" for 2-part points)
}

func (a Attach) String() string {
	if a.Part2 == "" {
		return a.Provider + ":" + a.Part1
	}
	return a.Provider + ":" + a.Part1 + ":" + a.Part2
}

// Probe is one attach+predicate+actions clause.
type Probe struct {
	Attach  Attach
	Pred    Expr // nil when unconditional
	Actions []*Action
}

// Action is one aggregation or emit statement.
type Action struct {
	Func AggFunc
	Arg  Field   // numeric field, set when Func.needsArg()
	By   []Field // key tuple; empty keys everything into one cell
}

// Program is a parsed, type-checked probe program. Programs are
// immutable; Compile turns one into shareable matchers and NewEngine
// instantiates per-machine aggregation state.
type Program struct {
	Probes []*Probe
}

// Expr is a type-checked predicate expression node.
type Expr interface {
	// typ is the static type of the node (parse-time checked).
	typ() exprType
	format(b *fmtBuf)
}

type exprType int

const (
	tNum exprType = iota
	tStr
	tBool
)

// fieldExpr reads one event field.
type fieldExpr struct{ F Field }

// numExpr is an integer literal.
type numExpr struct{ V int64 }

// strExpr is a quoted string literal.
type strExpr struct{ V string }

// cmpExpr compares two operands (== != < <= > >=).
type cmpExpr struct {
	Op   string
	L, R Expr
}

// boolExpr combines two boolean operands (&& ||).
type boolExpr struct {
	Op   string
	L, R Expr
}

// notExpr negates a boolean operand.
type notExpr struct{ X Expr }

func (e fieldExpr) typ() exprType {
	if e.F.IsString() {
		return tStr
	}
	return tNum
}
func (numExpr) typ() exprType  { return tNum }
func (strExpr) typ() exprType  { return tStr }
func (cmpExpr) typ() exprType  { return tBool }
func (boolExpr) typ() exprType { return tBool }
func (notExpr) typ() exprType  { return tBool }

// ---------------------------------------------------------------------
// Attach-point binding table
// ---------------------------------------------------------------------

// EventKindAttach maps every kernel event kind to the canonical probe
// attach point that observes it. The obsv exhaustiveness guard walks
// kernel.NumEventKinds against this table, so adding a kernel event
// kind without deciding its probe binding fails a test instead of the
// event being silently unprobeable. Kinds without a dedicated spelling
// bind through the generic `event:<kind>` provider, which accepts any
// known event-kind name.
var EventKindAttach = map[kernel.EventKind]string{
	kernel.EvUnknown:        "event:*", // never emitted; only the wildcard can see it
	kernel.EvEnter:          "syscall:*:entry",
	kernel.EvExit:           "syscall:*:exit",
	kernel.EvSignal:         "signal:deliver",
	kernel.EvFork:           "event:fork",
	kernel.EvExec:           "event:exec",
	kernel.EvExitProc:       "event:exit-proc",
	kernel.EvSudSigsys:      "event:sud-sigsys",
	kernel.EvSeccompSigsys:  "event:seccomp-sigsys",
	kernel.EvInterposed:     "event:interposed",
	kernel.EvChaos:          "chaos:inject",
	kernel.EvOracle:         "event:oracle",
	kernel.EvResolve:        "event:interpose-resolve",
	kernel.EvVdso:           "event:vdso",
	kernel.EvRewrite:        "event:rewrite",
	kernel.EvGuardMem:       "event:guard-mem",
	kernel.EvStaleFetch:     "event:stale-fetch",
	kernel.EvUnknownSyscall: "event:unknown-syscall",
	kernel.EvSfipViolation:  "sfip:violation",
}

// PhaseAttach maps every kernel phase to the canonical probe attach
// point that observes it, mirroring EventKindAttach for the phase
// side-stream. PhBlock/PhWake carry the sched:* sugar; everything else
// binds through phase:*:<name>.
var PhaseAttach = map[kernel.Phase]string{
	kernel.PhTrap:       "phase:*:trap",
	kernel.PhKernel:     "phase:*:kernel",
	kernel.PhBlock:      "sched:block",
	kernel.PhWake:       "sched:wake",
	kernel.PhReturn:     "phase:*:return",
	kernel.PhRestart:    "phase:*:restart",
	kernel.PhEINTR:      "phase:*:eintr",
	kernel.PhSignal:     "phase:*:signal",
	kernel.PhSigret:     "phase:*:sigreturn",
	kernel.PhHandler:    "phase:*:handler",
	kernel.PhHook:       "phase:*:hook",
	kernel.PhEmulate:    "phase:*:emulate",
	kernel.PhForward:    "phase:*:forward",
	kernel.PhHandlerRet: "phase:*:handler-return",
}

// validateAttach checks provider/part shape (syscall-name existence is
// deferred to Compile, which owns the naming tables).
func validateAttach(a Attach) error {
	switch a.Provider {
	case "syscall":
		if a.Part1 == "" {
			return fmt.Errorf("syscall attach needs a name or *")
		}
		if a.Part2 != "entry" && a.Part2 != "exit" {
			return fmt.Errorf("syscall attach point is syscall:<name|*>:entry|exit, got %q", a)
		}
	case "phase":
		if a.Part1 == "" || a.Part2 == "" {
			return fmt.Errorf("phase attach point is phase:<mech|*>:<phase|*>, got %q", a)
		}
		if a.Part2 != "*" {
			if _, ok := kernel.PhaseByName(a.Part2); !ok {
				return fmt.Errorf("unknown phase %q in attach point %q", a.Part2, a)
			}
		}
	case "signal":
		if a.Part1 != "deliver" || a.Part2 != "" {
			return fmt.Errorf("signal attach point is signal:deliver, got %q", a)
		}
	case "chaos":
		if a.Part1 != "inject" || a.Part2 != "" {
			return fmt.Errorf("chaos attach point is chaos:inject, got %q", a)
		}
	case "sched":
		if (a.Part1 != "block" && a.Part1 != "wake") || a.Part2 != "" {
			return fmt.Errorf("sched attach point is sched:block|wake, got %q", a)
		}
	case "sfip":
		if a.Part1 != "violation" || a.Part2 != "" {
			return fmt.Errorf("sfip attach point is sfip:violation, got %q", a)
		}
	case "event":
		if a.Part1 == "" || a.Part2 != "" {
			return fmt.Errorf("event attach point is event:<kind>, got %q", a)
		}
		if a.Part1 != "*" {
			if _, ok := kernel.EventKindByName(a.Part1); !ok {
				return fmt.Errorf("unknown event kind %q in attach point %q", a.Part1, a)
			}
		}
	default:
		return fmt.Errorf("unknown attach provider %q (want syscall|phase|signal|chaos|sched|sfip|event)", a.Provider)
	}
	return nil
}
