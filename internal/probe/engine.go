package probe

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"

	"k23/internal/kernel"
)

// HistBuckets is the log2 histogram shape every latency histogram in
// the repository uses: bucket i counts values whose bit length is i
// (bucket 0 holds zeros), with one overflow bucket at the top.
const HistBuckets = 33

// EmitCap is the capacity of an engine's emit() flight-recorder ring
// when NewEngine is given none.
const EmitCap = 4096

// Compiled is an immutable compiled program: per-kind dispatch tables,
// matchers, predicates and actions, shareable read-only across any
// number of engines
// (the fleet hands one Compiled to every machine; each machine's
// Engine owns its own aggregation state).
type Compiled struct {
	Prog *Program
	hash uint64 // Prog.Hash(), computed once

	// evByKind[k] lists, in program order, the event-stream probes whose
	// attach point selects kind k; evAnyKind holds the event:* probes
	// alone, for kinds outside the table.
	evByKind  [kernel.NumEventKinds][]*compiledProbe
	evAnyKind []*compiledProbe
	phProbes  []*compiledProbe
	acts      []actionMeta // flat (probe, action) slots, program order
	hasEv     bool
	hasPh     bool
}

type actionMeta struct {
	probe, action int
	fn            AggFunc
	by            []string // field names of the key tuple
}

type compiledProbe struct {
	probe int
	// Event-stream probes filter on the syscall number (kind is settled
	// by the evByKind dispatch); phase-stream probes use match.
	nr    uint64
	anyNr bool
	match func(c *evctx) bool
	pred  func(c *evctx) bool // nil when unconditional
	acts  []compiledAction
}

type compiledAction struct {
	slot int // index into Engine state / acts
	fn   AggFunc
	arg  Field // FNone unless fn.needsArg()
	by   []Field
}

// Compile turns a parsed program into a shareable Compiled. It resolves
// syscall names in attach points (the only deferred validation) and
// fails on names the kernel's syscall table does not know.
func Compile(prog *Program) (*Compiled, error) {
	c := &Compiled{Prog: prog, hash: prog.Hash()}
	for pi, pr := range prog.Probes {
		cp := &compiledProbe{probe: pi, anyNr: true}
		if pr.Pred != nil {
			cp.pred = compileBool(pr.Pred)
		}
		for ai, a := range pr.Actions {
			slot := len(c.acts)
			meta := actionMeta{probe: pi, action: ai, fn: a.Func}
			for _, f := range a.By {
				meta.by = append(meta.by, f.String())
			}
			c.acts = append(c.acts, meta)
			cp.acts = append(cp.acts, compiledAction{slot: slot, fn: a.Func, arg: a.Arg, by: a.By})
		}
		if pr.Attach.Provider == "phase" || pr.Attach.Provider == "sched" {
			cp.match = compilePhaseAttach(pr.Attach)
			c.phProbes = append(c.phProbes, cp)
			c.hasPh = true
			continue
		}
		kind, anyKind, err := c.bindEventAttach(pr.Attach, cp)
		if err != nil {
			return nil, err
		}
		if anyKind {
			for k := range c.evByKind {
				c.evByKind[k] = append(c.evByKind[k], cp)
			}
			c.evAnyKind = append(c.evAnyKind, cp)
		} else {
			c.evByKind[kind] = append(c.evByKind[kind], cp)
		}
		c.hasEv = true
	}
	return c, nil
}

// bindEventAttach resolves an event-stream attach point to the event
// kind it selects (anyKind for event:*) and sets cp's syscall-number
// filter.
func (c *Compiled) bindEventAttach(a Attach, cp *compiledProbe) (kind kernel.EventKind, anyKind bool, err error) {
	switch a.Provider {
	case "syscall":
		if a.Part1 != "*" {
			nr, ok := kernel.SyscallNrByName(a.Part1)
			if !ok {
				return 0, false, fmt.Errorf("unknown syscall %q in attach point", a.Part1)
			}
			cp.nr, cp.anyNr = nr, false
		}
		if a.Part2 == "exit" {
			return kernel.EvExit, false, nil
		}
		return kernel.EvEnter, false, nil
	case "signal":
		return kernel.EvSignal, false, nil
	case "chaos":
		return kernel.EvChaos, false, nil
	case "sfip":
		return kernel.EvSfipViolation, false, nil
	case "event":
		if a.Part1 == "*" {
			return 0, true, nil
		}
		k, _ := kernel.EventKindByName(a.Part1) // validated at parse
		return k, false, nil
	}
	return 0, false, fmt.Errorf("unknown attach provider %q", a.Provider)
}

// compilePhaseAttach builds the matcher for a phase-stream attach point.
func compilePhaseAttach(a Attach) func(*evctx) bool {
	switch a.Provider {
	case "sched":
		ph := kernel.PhBlock
		if a.Part1 == "wake" {
			ph = kernel.PhWake
		}
		return func(ctx *evctx) bool { return ctx.pm.Phase == ph }
	}
	mech := a.Part1
	var ph kernel.Phase
	anyPhase := a.Part2 == "*"
	if !anyPhase {
		ph, _ = kernel.PhaseByName(a.Part2) // validated at parse
	}
	return func(ctx *evctx) bool {
		if !anyPhase && ctx.pm.Phase != ph {
			return false
		}
		return mech == "*" || ctx.str(FMech) == mech
	}
}

// ---------------------------------------------------------------------
// Predicate compilation
// ---------------------------------------------------------------------

func compileBool(e Expr) func(*evctx) bool {
	switch n := e.(type) {
	case boolExpr:
		l, r := compileBool(n.L), compileBool(n.R)
		if n.Op == "&&" {
			return func(c *evctx) bool { return l(c) && r(c) }
		}
		return func(c *evctx) bool { return l(c) || r(c) }
	case notExpr:
		x := compileBool(n.X)
		return func(c *evctx) bool { return !x(c) }
	case cmpExpr:
		if n.L.typ() == tStr {
			l, r := compileStr(n.L), compileStr(n.R)
			if n.Op == "==" {
				return func(c *evctx) bool { return l(c) == r(c) }
			}
			return func(c *evctx) bool { return l(c) != r(c) }
		}
		l, r := compileNum(n.L), compileNum(n.R)
		switch n.Op {
		case "==":
			return func(c *evctx) bool { return l(c) == r(c) }
		case "!=":
			return func(c *evctx) bool { return l(c) != r(c) }
		case "<":
			return func(c *evctx) bool { return l(c) < r(c) }
		case "<=":
			return func(c *evctx) bool { return l(c) <= r(c) }
		case ">":
			return func(c *evctx) bool { return l(c) > r(c) }
		default:
			return func(c *evctx) bool { return l(c) >= r(c) }
		}
	}
	// Unreachable on type-checked programs.
	return func(*evctx) bool { return false }
}

func compileNum(e Expr) func(*evctx) int64 {
	switch n := e.(type) {
	case numExpr:
		v := n.V
		return func(*evctx) int64 { return v }
	case fieldExpr:
		f := n.F
		return func(c *evctx) int64 { return c.num(f) }
	}
	return func(*evctx) int64 { return 0 }
}

func compileStr(e Expr) func(*evctx) string {
	switch n := e.(type) {
	case strExpr:
		v := n.V
		return func(*evctx) string { return v }
	case fieldExpr:
		f := n.F
		return func(c *evctx) string { return c.str(f) }
	}
	return func(*evctx) string { return "" }
}

// ---------------------------------------------------------------------
// Runtime engine
// ---------------------------------------------------------------------

// cell is one keyed aggregation bucket.
type cell struct {
	key   []string
	count uint64
	val   int64 // sum for sum/hist, extremum for min/max
	hist  []uint64
}

// Engine holds the mutable aggregation state for one machine. Engines
// are single-writer (the machine's simulation goroutine) like every
// other collector; fleets merge Snapshots afterwards.
//
// The steady state allocates nothing: the current event or mark is
// copied into the engine, probes see it through the engine's own evctx,
// and cell keys are built in a reused buffer, so only a new cell
// allocates.
type Engine struct {
	c       *Compiled
	machine string
	mech    string

	// cells[slot] holds one action's cells, keyed by the binary `by`
	// tuple.
	cells []map[string]*cell

	ev     kernel.Event     // the event HandleEvent is running
	pm     kernel.PhaseMark // the mark HandlePhase is running
	evCtx  evctx            // views ev
	pmCtx  evctx            // views pm
	keyBuf []byte

	emits   []Emit // emit() ring, emitOrd-stamped
	emitCap int
	emitOrd uint64
}

// NewEngine instantiates per-machine state for a compiled program.
// machine tags emit records (fleet merges keep machines separate);
// mech is the static mechanism context the `mech` field reports when
// the stream itself does not carry one; emitCap is the number of most
// recent emit records the engine keeps (0 selects EmitCap).
func (c *Compiled) NewEngine(machine, mech string, emitCap int) *Engine {
	if emitCap <= 0 {
		emitCap = EmitCap
	}
	e := &Engine{c: c, machine: machine, mech: mech, emitCap: emitCap}
	e.evCtx = evctx{eng: e, ev: &e.ev}
	e.pmCtx = evctx{eng: e, pm: &e.pm}
	e.cells = make([]map[string]*cell, len(c.acts))
	for i := range e.cells {
		e.cells[i] = make(map[string]*cell)
	}
	return e
}

// Install attaches the engine to k's side-stream hooks, chaining any
// observers already present. Only the streams the program actually
// probes get a hook, preserving the kernel's single nil-check disabled
// path for the other.
func (e *Engine) Install(k *kernel.Kernel) {
	if e.c.hasEv {
		k.AddEventHook(e.HandleEvent)
	}
	if e.c.hasPh {
		k.AddPhaseHook(e.HandlePhase)
	}
}

// HandleEvent runs the event-stream probes against one kernel event.
func (e *Engine) HandleEvent(ev kernel.Event) {
	probes := e.c.evAnyKind
	if int(ev.Kind) < len(e.c.evByKind) {
		probes = e.c.evByKind[ev.Kind]
	}
	if len(probes) == 0 {
		return
	}
	e.ev = ev
	for _, p := range probes {
		if p.anyNr || ev.Num == p.nr {
			e.run(p, &e.evCtx)
		}
	}
}

// HandlePhase runs the phase-stream probes against one phase mark.
func (e *Engine) HandlePhase(m kernel.PhaseMark) {
	e.pm = m
	for _, p := range e.c.phProbes {
		if p.match(&e.pmCtx) {
			e.run(p, &e.pmCtx)
		}
	}
}

func (e *Engine) run(p *compiledProbe, ctx *evctx) {
	if p.pred != nil && !p.pred(ctx) {
		return
	}
	for i := range p.acts {
		a := &p.acts[i]
		if a.fn == AggEmit {
			e.emit(p.probe, ctx)
			continue
		}
		cl := e.cell(a, ctx)
		switch a.fn {
		case AggCount:
			cl.count++
		case AggSum:
			cl.count++
			cl.val += ctx.num(a.arg)
		case AggMin:
			v := ctx.num(a.arg)
			if cl.count == 0 || v < cl.val {
				cl.val = v
			}
			cl.count++
		case AggMax:
			v := ctx.num(a.arg)
			if cl.count == 0 || v > cl.val {
				cl.val = v
			}
			cl.count++
		case AggHist:
			v := ctx.num(a.arg)
			if cl.hist == nil {
				cl.hist = make([]uint64, HistBuckets)
			}
			cl.hist[HistBucket(v)]++
			cl.count++
			cl.val += v
		}
	}
}

// cell finds (or, on first sight, creates) the action's cell for the
// current event. The lookup key is the `by` tuple in binary form —
// numbers as 8 fixed bytes, strings length-prefixed, so distinct tuples
// never collide — and the rendered key is built only for a new cell.
func (e *Engine) cell(a *compiledAction, ctx *evctx) *cell {
	b := e.keyBuf[:0]
	for _, f := range a.by {
		if f.IsString() {
			s := ctx.str(f)
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		} else {
			b = binary.LittleEndian.AppendUint64(b, uint64(ctx.num(f)))
		}
	}
	e.keyBuf = b
	cells := e.cells[a.slot]
	cl := cells[string(b)]
	if cl == nil {
		cl = e.newCell(a, ctx)
		cells[string(b)] = cl
	}
	return cl
}

// newCell renders the `by` tuple of a first-seen cell.
func (e *Engine) newCell(a *compiledAction, ctx *evctx) *cell {
	cl := &cell{}
	if len(a.by) != 0 {
		cl.key = make([]string, len(a.by))
		for i, f := range a.by {
			if f.IsString() {
				cl.key[i] = ctx.str(f)
			} else {
				cl.key[i] = strconv.FormatInt(ctx.num(f), 10)
			}
		}
	}
	return cl
}

// HistBucket is the one log2 bucket function: bucket = bit length,
// clamped into the overflow bucket. Negative values land there too —
// the only signed field is ret, and a caller histogramming raw returns
// wants errno magnitudes kept visible, not folded into small buckets.
func HistBucket(v int64) int {
	if v < 0 {
		return HistBuckets - 1
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpperBound returns the exclusive upper bound of bucket i
// (^uint64(0) for the overflow bucket).
func BucketUpperBound(i int) uint64 {
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// emit appends one record to the engine's flight-recorder ring
// (most-recent-wins; the first retained ord reveals how many were
// dropped).
func (e *Engine) emit(probeIdx int, ctx *evctx) {
	var em Emit
	em.Machine = e.machine
	em.Ord = e.emitOrd
	e.emitOrd++
	em.Probe = probeIdx
	if ev := ctx.ev; ev != nil {
		em.Stream = "ev"
		em.Seq = ev.Seq
		em.Clock = ev.Clock
		em.PID = ev.PID
		em.TID = ev.TID
		em.Kind = ev.Kind.String()
		em.Num = ev.Num
		em.Site = ev.Site
		em.Ret = int64(ev.Ret)
		em.Args = ev.Args
		em.Detail = ev.Detail
	} else {
		m := ctx.pm
		em.Stream = "ph"
		em.Seq = m.Seq
		em.Clock = m.Clock
		em.PID = m.PID
		em.TID = m.TID
		em.Kind = m.Phase.String()
		em.Num = m.Num
		em.Site = m.Site
		em.Detail = m.Detail
	}
	if len(e.emits) < e.emitCap {
		e.emits = append(e.emits, em)
	} else {
		e.emits[em.Ord%uint64(e.emitCap)] = em
	}
}

// ---------------------------------------------------------------------
// Field resolution
// ---------------------------------------------------------------------

// evctx adapts one event or phase mark to the DSL's field namespace.
// Exactly one of ev/pm is set.
type evctx struct {
	eng *Engine
	ev  *kernel.Event
	pm  *kernel.PhaseMark
}

func (c *evctx) num(f Field) int64 {
	if e := c.ev; e != nil {
		switch f {
		case FNr:
			return int64(e.Num)
		case FErrno:
			if n, ok := kernel.IsErr(e.Ret); ok {
				return int64(n)
			}
			return 0
		case FTid:
			return int64(e.TID)
		case FPid:
			return int64(e.PID)
		case FRet:
			return int64(e.Ret)
		case FCycles:
			return int64(e.Cost)
		case FVclock:
			return int64(e.Clock)
		case FSite:
			return int64(e.Site)
		}
		return 0
	}
	m := c.pm
	switch f {
	case FNr:
		return int64(m.Num)
	case FTid:
		return int64(m.TID)
	case FPid:
		return int64(m.PID)
	case FCycles:
		return int64(m.Cycles)
	case FVclock:
		return int64(m.Clock)
	case FSite:
		return int64(m.Site)
	}
	return 0 // ret/errno do not exist on the phase stream
}

func (c *evctx) str(f Field) string {
	if e := c.ev; e != nil {
		switch f {
		case FMech:
			if e.Kind == kernel.EvInterposed || e.Kind == kernel.EvResolve {
				return e.Detail
			}
			return c.eng.mech
		case FName:
			if e.Kind == kernel.EvSignal {
				return ""
			}
			return kernel.SyscallName(e.Num)
		case FPhase:
			return ""
		case FKind:
			return e.Kind.String()
		case FDetail:
			return e.Detail
		}
		return ""
	}
	m := c.pm
	switch f {
	case FMech:
		if isHandlerPhase(m.Phase) && m.Detail != "" {
			return m.Detail
		}
		return c.eng.mech
	case FName:
		return kernel.SyscallName(m.Num)
	case FPhase:
		return m.Phase.String()
	case FKind:
		return "phase"
	case FDetail:
		return m.Detail
	}
	return ""
}

// isHandlerPhase reports whether the mark's Detail carries a mechanism
// name (interposer lifecycle phases) rather than a wake reason.
func isHandlerPhase(p kernel.Phase) bool {
	switch p {
	case kernel.PhHandler, kernel.PhHook, kernel.PhEmulate, kernel.PhForward, kernel.PhHandlerRet:
		return true
	}
	return false
}
