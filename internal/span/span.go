// Package span assembles the kernel's phase-mark side-stream and trace
// events into causal span trees: one root span per syscall lifecycle
// (trap → mechanism attribution → kernel execution → block/wakeup →
// return, including EINTR/SA_RESTART restart chains), plus handler spans
// for every interposer episode and signal-delivery spans. Spans carry two
// timelines: the global virtual clock (cross-thread ordering and
// blocking-edge latency) and the owning thread's cycle account (kernel
// work is charged, not stepped, so phase-cost attribution must sum cycle
// deltas, not clock deltas). All inputs are deterministic, so two runs of
// the same workload — or a live run and its record/replay reconstruction —
// produce bit-identical span sets.
package span

import (
	"sort"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// Span kinds.
const (
	KindSyscall = "syscall" // one kernel-visible syscall lifecycle
	KindHandler = "handler" // one interposer handler episode
	KindSignal  = "signal"  // signal frame push → rt_sigreturn
)

// Cause-edge kinds linking a span to the span that made it happen.
const (
	CauseRestart = "restart" // SA_RESTART re-executed the entry instruction
	CauseEINTR   = "eintr"   // application retried after an -EINTR abort
	CauseBlock   = "block"   // wakeup re-executed a blocked call's entry
	CauseForward = "forward" // a closed handler span forwarded this trap
	CauseClone   = "clone"   // first span of a clone/fork child
)

// Slice is one contiguous phase interval inside a span. C0/C1 are virtual
// clock bounds; Y0/Y1 are the owning thread's cycle-account bounds.
type Slice struct {
	Phase string `json:"ph"`
	C0    uint64 `json:"c0"`
	C1    uint64 `json:"c1"`
	Y0    uint64 `json:"y0"`
	Y1    uint64 `json:"y1"`
}

// Span is one closed node of the causal trace. Machine is in-memory
// only: the JSONL encoding carries it on the set record.
type Span struct {
	Machine string `json:"-"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // enclosing span on the same thread; 0 = root
	Kind    string `json:"kind"`
	PID     int    `json:"pid"`
	TID     int    `json:"tid"`
	Num     uint64 `json:"num"`            // syscall number (syscall/handler) or signal number
	Name    string `json:"name,omitempty"` // resolved syscall name
	Site    uint64 `json:"site,omitempty"` // triggering instruction / handler entry
	Mech    string `json:"mech,omitempty"` // interposition mechanism, when attributed

	C0 uint64 `json:"c0"` // virtual clock at open
	C1 uint64 `json:"c1"` // virtual clock at close
	Y0 uint64 `json:"y0"` // thread cycles at open
	Y1 uint64 `json:"y1"` // thread cycles at close

	Ret    uint64 `json:"ret,omitempty"`
	HasRet bool   `json:"hasret,omitempty"`

	Blocked    bool   `json:"blocked,omitempty"`    // closed by parking on a wake predicate
	WakeClock  uint64 `json:"wakeclock,omitempty"`  // clock when the predicate became true
	WakeReason string `json:"wakereason,omitempty"` // wake predicate description

	Cause     uint64 `json:"cause,omitempty"` // causal predecessor span ID
	CauseKind string `json:"causekind,omitempty"`

	Chaos  string `json:"chaos,omitempty"`  // chaos injections observed during the span
	Detail string `json:"detail,omitempty"` // close annotation (sud-sigsys, seccomp-errno, ...)
	Forced bool   `json:"forced,omitempty"` // closed by an outer lifecycle event, not its own end mark

	Slices []Slice `json:"slices,omitempty"`
}

// Set is all spans of one machine (one kernel), in ID order.
type Set struct {
	Machine string
	Spans   []*Span
}

// pendingEdge remembers a cause edge waiting for its successor trap.
type pendingEdge struct {
	id        uint64
	kind      string
	num, site uint64
}

// openSpan is a span under construction plus its current slice.
type openSpan struct {
	span   *Span
	cur    string // current slice phase name; "" = none
	c0     uint64 // current slice start (clock)
	y0     uint64 // current slice start (cycles)
	resume string // phase to resume when a child span closes

	forwarded    bool // saw PhForward
	sawTrapChild bool // a syscall span opened while this handler was innermost
}

// Builder folds the phase-mark side-stream (HandlePhase) and the main
// event stream (HandleEvent) into a Set. Both streams arrive from the
// same kernel loop, so arrival order is the causal order; the builder is
// not safe for concurrent use.
type Builder struct {
	// Machine tags every span (fleet merges need a per-kernel identity).
	Machine string

	nextID      uint64
	spans       []*Span
	stacks      map[int][]*openSpan // per-TID open-span stack
	lastBlocked map[int]*Span       // most recent PhBlock-closed span per TID
	pending     map[int]pendingEdge // restart/eintr/block edge awaiting its re-trap
	lastForward map[int]uint64      // handler that forwarded without a nested trap
	childCause  map[int]uint64      // fork/clone child id → parent span
	seenTID     map[int]bool
	lastClock   uint64
	lastCycles  map[int]uint64
}

// NewBuilder returns an empty builder for one machine.
func NewBuilder(machine string) *Builder {
	return &Builder{
		Machine:     machine,
		nextID:      1,
		stacks:      make(map[int][]*openSpan),
		lastBlocked: make(map[int]*Span),
		pending:     make(map[int]pendingEdge),
		lastForward: make(map[int]uint64),
		childCause:  make(map[int]uint64),
		seenTID:     make(map[int]bool),
		lastCycles:  make(map[int]uint64),
	}
}

// HandlePhase consumes one phase mark.
func (b *Builder) HandlePhase(m kernel.PhaseMark) {
	b.lastClock = m.Clock
	b.lastCycles[m.TID] = m.Cycles
	switch m.Phase {
	case kernel.PhTrap:
		sp := b.open(m, KindSyscall, "", "trap")
		b.resolveCause(sp, m)
	case kernel.PhHandler:
		b.open(m, KindHandler, m.Detail, "handler")
	case kernel.PhSignal:
		// A signal delivered while a syscall span is still open (a
		// self-directed kill reaches here before handleSyscall's trailing
		// return mark) ends that call: the handler frame is built on top
		// of its completed context.
		if top := b.top(m.TID); top != nil && top.span.Kind == KindSyscall {
			b.closeSpan(m.TID, top, m, "signal-divert", false)
		}
		b.open(m, KindSignal, "", "signal")
	case kernel.PhForward:
		if top := b.top(m.TID); top != nil && top.span.Kind == KindHandler {
			top.forwarded = true
		}
		b.slice(m)
	case kernel.PhKernel, kernel.PhHook, kernel.PhEmulate:
		b.slice(m)
	case kernel.PhReturn:
		b.closeKind(m, KindSyscall, m.Detail)
	case kernel.PhHandlerRet:
		b.closeKind(m, KindHandler, "")
	case kernel.PhSigret:
		b.closeKind(m, KindSignal, "")
	case kernel.PhBlock:
		if sp := b.closeKind(m, KindSyscall, ""); sp != nil {
			sp.Blocked = true
			sp.WakeReason = m.Detail
			b.lastBlocked[m.TID] = sp
			b.pending[m.TID] = pendingEdge{id: sp.ID, kind: CauseBlock, num: m.Num, site: m.Site}
		}
	case kernel.PhWake:
		if sp := b.lastBlocked[m.TID]; sp != nil {
			sp.WakeClock = m.Clock
			if m.Detail != "" && m.Detail != "none" {
				sp.WakeReason = m.Detail
			}
		}
	case kernel.PhRestart, kernel.PhEINTR:
		kind := CauseRestart
		if m.Phase == kernel.PhEINTR {
			kind = CauseEINTR
		}
		if sp := b.lastBlocked[m.TID]; sp != nil {
			b.pending[m.TID] = pendingEdge{id: sp.ID, kind: kind, num: m.Num, site: m.Site}
		}
	}
}

// HandleEvent consumes one main-stream trace event, annotating the spans
// the phase stream built. Chain it after any existing event hook.
func (b *Builder) HandleEvent(ev kernel.Event) {
	switch ev.Kind {
	case kernel.EvExit:
		if os := b.nearestKind(ev.TID, KindSyscall); os != nil {
			os.span.Ret = ev.Ret
			os.span.HasRet = true
		}
	case kernel.EvInterposed:
		// Attribute the open syscall span (ptrace stops run inside the
		// trap); rewrite/SUD handler spans already carry their mechanism.
		if os := b.nearestKind(ev.TID, KindSyscall); os != nil && os.span.Mech == "" {
			os.span.Mech = ev.Detail
		}
	case kernel.EvChaos:
		if top := b.top(ev.TID); top != nil {
			if top.span.Chaos != "" {
				top.span.Chaos += ","
			}
			top.span.Chaos += ev.Detail
		}
	case kernel.EvFork:
		// Ret is the child's id (PID for fork, TID for clone); its first
		// span gets a clone cause edge back to the creating context.
		if top := b.top(ev.TID); top != nil {
			b.childCause[int(ev.Ret)] = top.span.ID
		}
	}
}

// Finish force-closes anything still open and returns the completed set.
func (b *Builder) Finish() *Set {
	tids := make([]int, 0, len(b.stacks))
	for tid := range b.stacks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		stack := b.stacks[tid]
		m := kernel.PhaseMark{Clock: b.lastClock, Cycles: b.lastCycles[tid], TID: tid}
		for i := len(stack) - 1; i >= 0; i-- {
			b.closeSpan(tid, stack[i], m, "", true)
		}
		delete(b.stacks, tid)
	}
	sort.Slice(b.spans, func(i, j int) bool { return b.spans[i].ID < b.spans[j].ID })
	for _, sp := range b.spans {
		sp.Machine = b.Machine
	}
	return &Set{Machine: b.Machine, Spans: b.spans}
}

// top returns the innermost open span for tid.
func (b *Builder) top(tid int) *openSpan {
	stack := b.stacks[tid]
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// nearestKind returns the innermost open span of the given kind for tid.
func (b *Builder) nearestKind(tid int, kind string) *openSpan {
	stack := b.stacks[tid]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].span.Kind == kind {
			return stack[i]
		}
	}
	return nil
}

// open pushes a new span and starts its first slice.
func (b *Builder) open(m kernel.PhaseMark, kind, mech, firstSlice string) *Span {
	// Cut the enclosing span's current slice at the boundary so child
	// time is not double-counted inside a parent slice interval; the
	// phase resumes when the child closes.
	if top := b.top(m.TID); top != nil {
		top.resume = top.cur
		b.endSlice(top, m)
	}
	sp := &Span{
		ID: b.nextID, Kind: kind, PID: m.PID, TID: m.TID,
		Num: m.Num, Site: m.Site, Mech: mech,
		C0: m.Clock, Y0: m.Cycles,
	}
	b.nextID++
	if top := b.top(m.TID); top != nil {
		sp.Parent = top.span.ID
		if kind == KindSyscall && top.span.Kind == KindHandler {
			top.sawTrapChild = true
		}
	}
	if !b.seenTID[m.TID] {
		b.seenTID[m.TID] = true
		if id, ok := b.childCause[m.TID]; ok && sp.Cause == 0 {
			sp.Cause, sp.CauseKind = id, CauseClone
			delete(b.childCause, m.TID)
		}
	}
	os := &openSpan{span: sp, cur: firstSlice, c0: m.Clock, y0: m.Cycles}
	b.stacks[m.TID] = append(b.stacks[m.TID], os)
	return sp
}

// resolveCause links a fresh syscall span to its causal predecessor.
func (b *Builder) resolveCause(sp *Span, m kernel.PhaseMark) {
	if sp.Cause != 0 {
		return // clone edge already attached
	}
	if pe, ok := b.pending[m.TID]; ok && pe.num == m.Num && pe.site == m.Site {
		sp.Cause, sp.CauseKind = pe.id, pe.kind
		delete(b.pending, m.TID)
		return
	}
	if id := b.lastForward[m.TID]; id != 0 {
		sp.Cause, sp.CauseKind = id, CauseForward
		delete(b.lastForward, m.TID)
	}
}

// slice transitions the innermost open span's current phase. Marks with
// no open span (DirectSyscall kernel work outside any handler) are
// dropped; that time shows up in the analyzer's residual.
func (b *Builder) slice(m kernel.PhaseMark) {
	top := b.top(m.TID)
	if top == nil {
		return
	}
	if top.cur == m.Phase.String() {
		return
	}
	b.endSlice(top, m)
	top.cur = m.Phase.String()
	top.c0, top.y0 = m.Clock, m.Cycles
}

// endSlice closes the current slice at m's timestamps.
func (b *Builder) endSlice(os *openSpan, m kernel.PhaseMark) {
	if os.cur == "" {
		return
	}
	os.span.Slices = append(os.span.Slices, Slice{
		Phase: os.cur, C0: os.c0, C1: m.Clock, Y0: os.y0, Y1: m.Cycles,
	})
	os.cur = ""
}

// closeKind closes the nearest open span of the given kind, force-closing
// anything stacked above it (self-healing for diverted lifecycles).
// Returns nil when no such span is open — a close mark for a lifecycle an
// earlier mark already retired (e.g. the trailing return of rt_sigreturn,
// whose trap span the sigreturn mark closed).
func (b *Builder) closeKind(m kernel.PhaseMark, kind, detail string) *Span {
	stack := b.stacks[m.TID]
	idx := -1
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].span.Kind == kind {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	for i := len(stack) - 1; i > idx; i-- {
		b.closeSpan(m.TID, stack[i], m, "", true)
	}
	target := stack[idx]
	b.closeSpan(m.TID, target, m, detail, false)
	return target.span
}

// closeSpan finalizes one open span and pops it from its stack.
func (b *Builder) closeSpan(tid int, os *openSpan, m kernel.PhaseMark, detail string, forced bool) {
	b.endSlice(os, m)
	sp := os.span
	sp.C1, sp.Y1 = m.Clock, m.Cycles
	if detail != "" {
		sp.Detail = detail
	}
	sp.Forced = forced
	if sp.Kind == KindSyscall {
		sp.Name = kernel.SyscallName(sp.Num)
	}
	if sp.Kind == KindHandler && os.forwarded && !os.sawTrapChild && !forced {
		// K23's fast path closes the handler before the trampoline
		// re-issues the call; link the upcoming trap span by cause edge.
		b.lastForward[tid] = sp.ID
	}
	// Pop (os is always the top by construction of the call sites).
	stack := b.stacks[tid]
	if n := len(stack); n > 0 && stack[n-1] == os {
		b.stacks[tid] = stack[:n-1]
	}
	b.spans = append(b.spans, sp)
	// Resume the parent's pre-child slice at the boundary so parent
	// self-time excludes exactly the child interval.
	if top := b.top(tid); top != nil {
		top.cur = top.resume
		top.c0, top.y0 = m.Clock, m.Cycles
	}
}

// Merge orders per-machine sets deterministically by machine name.
// Span IDs are per-machine, so no renumbering is needed; consumers key
// spans by (machine, id).
func Merge(sets []*Set) []*Set {
	out := append([]*Set(nil), sets...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Hash digests the machine name and the set's canonical span lines:
// the fingerprint two runs must agree on for the determinism and
// replay-parity proofs.
func (s *Set) Hash() uint64 {
	h := canon.NewHash()
	h.WriteString(s.Machine)
	w := canon.NewHasher(h)
	for _, sp := range s.Spans {
		w.Record("span", sp)
	}
	return w.Sum()
}

// HashAll folds per-set hashes in merge order.
func HashAll(sets []*Set) uint64 {
	h := canon.NewHash()
	for _, s := range Merge(sets) {
		h.Uint64(s.Hash())
	}
	return uint64(h)
}
