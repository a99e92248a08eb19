// Package audit is the shadow-map audit layer: it joins the kernel's
// ground-truth syscall stream (EvOracle — every call the kernel actually
// executed) against the per-mechanism attribution stream from the
// interposers (EvInterposed/EvResolve) and derives, per thread and per
// virtual-clock window, what the interposer covered, what escaped it,
// and why.
//
// The paper's pitfalls (P1a–P5) all manifest in this differential:
// a syscall the kernel executed but no mechanism claimed is an escape,
// classified against the taxonomy (startup window, signal path, raw
// clone children, post-coverage); a site the rewriter patched that the
// loader's ground truth says is data is a misidentification; a vdso
// left mapped is a structural blind spot that never even reaches the
// syscall stream.
//
// Design rules match internal/obsv: one Auditor per World fed from the
// same event hook, no shared state, deterministic sorted snapshots that
// merge at report time and compare bit-identical across fleet worker
// counts and chaos seeds.
package audit

import (
	"fmt"

	"k23/internal/kernel"
)

// Escape categories, in pitfall-taxonomy order.
const (
	EscStartup      = "startup"       // before the mechanism's first claim in this image (pre-load window, env-bypass)
	EscSignal       = "signal"        // inside a signal handler the mechanism did not follow
	EscCloneChild   = "clone-child"   // on a thread born from an unclaimed raw clone
	EscPostCoverage = "post-coverage" // after coverage was established: a hard escape (P1b, P2a)
)

// MaxLedgerPerCategory bounds the proof-carrying ledger entries retained
// per escape category per Auditor; per-(category, syscall) counts are
// unbounded.
const MaxLedgerPerCategory = 4

// excerptRing is the number of recent events kept for ledger excerpts.
const excerptRing = 32

// windowCycles is the virtual-clock window width for the per-window
// tallies (~1ms at the simulated 3.2GHz).
const windowCycles = 3_200_000

// claim is one pending attribution: the interposer said "I am handling
// syscall nr at site via mech" and the matching oracle has not arrived.
type claim struct {
	nr    uint64
	site  uint64
	mech  string
	clock uint64
}

// tidKey identifies a thread across processes.
type tidKey struct {
	pid, tid int
}

// procState is the per-process join state.
type procState struct {
	pid             int
	claims          uint64 // total claims ever
	oracles         uint64 // total oracles ever
	ttfc            uint64 // trap oracles before the first claim (frozen once a claim lands)
	sawClaim        bool
	sawExec         bool
	claimsSinceExec uint64
	trapsSinceExec  uint64
	vdso            string
	exited          bool
	exitCode        int
	exitSignal      int
	stale           uint64
}

// Auditor consumes the kernel event stream of one World and maintains
// the differential join. Not safe for concurrent use — like the other
// collectors it is owned by its World's event hook.
type Auditor struct {
	// OnOracle, if non-nil, observes every classified ground-truth
	// oracle after the join: class is "covered", "internal",
	// "signal-infra", or "escape:<category>". The SFIP learner rides
	// this hook — it trains on the auditor's classification (covered
	// trampoline-origin calls plus signal infrastructure) rather than
	// the raw stream, so escapes never contaminate a learned policy.
	OnOracle func(e *kernel.Event, class string)

	claims   map[tidKey][]claim
	sigdepth map[tidKey]int
	tainted  map[tidKey]bool // threads born from unclaimed clones
	procs    map[int]*procState
	procSeen []int // pids in first-seen order (deterministic reports)

	coverage map[covKey]uint64
	escapes  map[escKey]uint64
	ledger   map[string][]LedgerEntry
	windows  map[uint64]*windowTally
	guardMem map[string]*GuardMemStat

	ring    [excerptRing]kernel.Event
	ringLen int
	ringPos int

	totOracles   uint64
	totClaims    uint64
	covered      uint64
	emulated     uint64
	internal     uint64
	signalInfra  uint64
	retries      uint64
	doubleClaims uint64
	misattrib    uint64

	rewriteGenuine  uint64
	rewriteMisID    uint64
	permClobbers    uint64
	vdsoMapped      uint64
	vdsoDisabled    uint64
	signalDeaths    uint64
	staleFetches    uint64
	unknownSyscalls uint64
}

type covKey struct {
	nr   uint64
	mech string
}

type escKey struct {
	category string
	nr       uint64
}

type windowTally struct {
	oracles uint64
	covered uint64
	escapes uint64
}

// New returns an empty Auditor.
func New() *Auditor {
	return &Auditor{
		claims:   make(map[tidKey][]claim),
		sigdepth: make(map[tidKey]int),
		tainted:  make(map[tidKey]bool),
		procs:    make(map[int]*procState),
		coverage: make(map[covKey]uint64),
		escapes:  make(map[escKey]uint64),
		ledger:   make(map[string][]LedgerEntry),
		windows:  make(map[uint64]*windowTally),
		guardMem: make(map[string]*GuardMemStat),
	}
}

func (a *Auditor) proc(pid int) *procState {
	p := a.procs[pid]
	if p == nil {
		p = &procState{pid: pid}
		a.procs[pid] = p
		a.procSeen = append(a.procSeen, pid)
	}
	return p
}

func (a *Auditor) window(clock uint64) *windowTally {
	idx := clock / windowCycles
	w := a.windows[idx]
	if w == nil {
		w = &windowTally{}
		a.windows[idx] = w
	}
	return w
}

// Handle consumes one kernel event. The pointer is valid only for the
// duration of the call.
func (a *Auditor) Handle(e *kernel.Event) {
	a.ring[a.ringPos] = *e
	a.ringPos = (a.ringPos + 1) % excerptRing
	if a.ringLen < excerptRing {
		a.ringLen++
	}

	switch e.Kind {
	case kernel.EvInterposed:
		a.handleClaim(e)
	case kernel.EvResolve:
		a.handleResolve(e)
	case kernel.EvOracle:
		a.handleOracle(e)
	case kernel.EvSignal:
		a.sigdepth[tidKey{e.PID, e.TID}]++
	case kernel.EvExec:
		p := a.proc(e.PID)
		p.sawExec = true
		p.claimsSinceExec = 0
		p.trapsSinceExec = 0
	case kernel.EvVdso:
		p := a.proc(e.PID)
		p.vdso = e.Detail
		if e.Detail == "mapped" {
			a.vdsoMapped++
		} else {
			a.vdsoDisabled++
		}
	case kernel.EvExitProc:
		p := a.proc(e.PID)
		p.exited = true
		p.exitCode = int(e.Num)
		p.exitSignal = int(e.Ret)
		if e.Ret != 0 {
			a.signalDeaths++
		}
	case kernel.EvStaleFetch:
		a.proc(e.PID).stale += e.Num
		a.staleFetches += e.Num
	case kernel.EvUnknownSyscall:
		// An ENOSYS rejection the kernel made visible (satellite of the
		// SFIP work): counted so reports can distinguish "never called"
		// from "called but unimplemented".
		a.unknownSyscalls++
	case kernel.EvRewrite:
		if containsWord(e.Detail, "misidentified") {
			a.rewriteMisID++
		} else {
			a.rewriteGenuine++
		}
		if containsWord(e.Detail, "perm-clobber") {
			a.permClobbers++
		}
	case kernel.EvGuardMem:
		g := a.guardMem[e.Detail]
		if g == nil {
			g = &GuardMemStat{Kind: e.Detail}
			a.guardMem[e.Detail] = g
		}
		if e.Args[0] > g.MaxReservedBytes {
			g.MaxReservedBytes = e.Args[0]
		}
		if e.Args[1] > g.MaxResidentBytes {
			g.MaxResidentBytes = e.Args[1]
		}
	}
}

// handleClaim pushes an attribution claim, coalescing handler retries
// (a blocked call re-traps through the same mechanism at the same site)
// and flagging genuine double interposition (a second mechanism, or the
// same one at a different site, claiming the same pending number).
func (a *Auditor) handleClaim(e *kernel.Event) {
	key := tidKey{e.PID, e.TID}
	stack := a.claims[key]
	c := claim{nr: e.Num, site: e.Site, mech: e.Detail, clock: e.Clock}

	if n := len(stack); n > 0 {
		top := stack[n-1]
		if top.nr == c.nr && top.site == c.site && top.mech == c.mech {
			// Retry of a would-block or restarted call: same dynamic
			// call, one eventual oracle. Keep one claim.
			a.retries++
			stack[n-1].clock = c.clock
			return
		}
		for _, p := range stack {
			if p.nr == c.nr {
				a.doubleClaims++
				break
			}
		}
	}
	a.claims[key] = append(stack, c)
	a.totClaims++

	p := a.proc(e.PID)
	p.claims++
	p.claimsSinceExec++
	p.sawClaim = true
}

// handleResolve retires (emulated) or renumbers (rewritten) the newest
// claim made by the resolving mechanism.
func (a *Auditor) handleResolve(e *kernel.Event) {
	key := tidKey{e.PID, e.TID}
	stack := a.claims[key]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].mech != e.Detail {
			continue
		}
		if e.Ret != 0 {
			// Emulated in-process: no kernel oracle will follow. The
			// call is covered by the mechanism.
			a.claims[key] = append(stack[:i], stack[i+1:]...)
			a.coverage[covKey{e.Num, e.Detail}]++
			a.covered++
			a.emulated++
		} else {
			stack[i].nr = e.Num
		}
		return
	}
}

// handleOracle joins one ground-truth execution against the pending
// claims, counting coverage or classifying the escape.
func (a *Auditor) handleOracle(e *kernel.Event) {
	key := tidKey{e.PID, e.TID}
	trap := e.Detail == "trap"
	p := a.proc(e.PID)
	p.oracles++
	a.totOracles++
	w := a.window(e.Clock)
	w.oracles++

	if trap {
		p.trapsSinceExec++
		if !p.sawClaim {
			p.ttfc++
		}
	}

	// Consume the newest claim with a matching number. Direct oracles
	// participate too: EmulateClone services a claimed clone via
	// DirectSyscall.
	stack := a.claims[key]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].nr != e.Num {
			continue
		}
		mech := stack[i].mech
		a.claims[key] = append(stack[:i], stack[i+1:]...)
		a.coverage[covKey{e.Num, mech}]++
		a.covered++
		w.covered++
		if e.Num == kernel.SysRtSigreturn {
			a.sigreturnDepth(key)
		}
		if a.OnOracle != nil {
			a.OnOracle(e, "covered")
		}
		return
	}

	// Unclaimed.
	if !trap {
		// Interposer-internal work — host-side direct calls (guard
		// mmaps, emulation plumbing) and "hostcall"-origin library
		// sequences (the mechanism's documented self-exemption):
		// invisible to the application, never an escape.
		a.internal++
		if a.OnOracle != nil {
			a.OnOracle(e, "internal")
		}
		return
	}
	if len(stack) > 0 {
		// The mechanism claimed SOMETHING on this thread but not this
		// number: it attributed the wrong call.
		a.misattrib++
	}
	if e.Num == kernel.SysRtSigreturn && a.sigdepth[key] > 0 {
		// Signal-frame teardown belonging to the interposition
		// machinery itself (SUD handlers end with rt_sigreturn).
		a.signalInfra++
		a.sigreturnDepth(key)
		if a.OnOracle != nil {
			a.OnOracle(e, "signal-infra")
		}
		return
	}

	category := EscPostCoverage
	switch {
	case a.sigdepth[key] > 0:
		category = EscSignal
	case a.tainted[key]:
		category = EscCloneChild
	case p.claimsSinceExec == 0:
		category = EscStartup
	}
	a.escapes[escKey{category, e.Num}]++
	w.escapes++
	if entries := a.ledger[category]; len(entries) < MaxLedgerPerCategory {
		a.ledger[category] = append(entries, LedgerEntry{
			Category: category,
			PID:      e.PID,
			TID:      e.TID,
			Nr:       e.Num,
			Name:     kernel.SyscallName(e.Num),
			Site:     e.Site,
			Clock:    e.Clock,
			Seq:      e.Seq,
			Excerpt:  a.excerpt(),
		})
	}

	if e.Num == kernel.SysRtSigreturn {
		a.sigreturnDepth(key)
	}
	if e.Num == kernel.SysClone && !kernelIsErr(e.Ret) && e.Ret != 0 {
		// A raw clone escaped: its child thread runs with no mechanism
		// attached. Taint it so its own escapes carry the cause.
		a.tainted[tidKey{e.PID, int(e.Ret)}] = true
	}
	if a.OnOracle != nil {
		a.OnOracle(e, "escape:"+category)
	}
}

// sigreturnDepth decrements the thread's signal depth (floor zero).
func (a *Auditor) sigreturnDepth(key tidKey) {
	if a.sigdepth[key] > 0 {
		a.sigdepth[key]--
	}
}

// excerpt renders the recent-event ring, oldest first.
func (a *Auditor) excerpt() []string {
	out := make([]string, 0, a.ringLen)
	start := a.ringPos - a.ringLen
	if start < 0 {
		start += excerptRing
	}
	for i := 0; i < a.ringLen; i++ {
		ev := &a.ring[(start+i)%excerptRing]
		out = append(out, a.renderEvent(ev))
	}
	return out
}

// renderEvent formats one event for a ledger excerpt.
func (a *Auditor) renderEvent(e *kernel.Event) string {
	s := fmt.Sprintf("%d %d/%d %s", e.Clock, e.PID, e.TID, e.Kind)
	switch e.Kind {
	case kernel.EvEnter, kernel.EvExit, kernel.EvOracle, kernel.EvInterposed,
		kernel.EvResolve, kernel.EvSudSigsys, kernel.EvSeccompSigsys:
		s += " " + kernel.SyscallName(e.Num)
	case kernel.EvSignal:
		s += fmt.Sprintf(" sig=%d", e.Num)
	}
	if e.Site != 0 {
		s += fmt.Sprintf(" site=%#x", e.Site)
	}
	switch e.Kind {
	case kernel.EvExit, kernel.EvOracle:
		s += fmt.Sprintf(" ret=%d", int64(e.Ret))
	}
	if e.Detail != "" {
		s += " [" + e.Detail + "]"
	}
	return s
}

// kernelIsErr mirrors kernel.IsErr without needing the errno value.
func kernelIsErr(ret uint64) bool {
	_, is := kernel.IsErr(ret)
	return is
}

// containsWord reports whether detail contains word as a comma- or
// whole-string component ("misidentified,perm-clobber").
func containsWord(detail, word string) bool {
	for len(detail) > 0 {
		i := 0
		for i < len(detail) && detail[i] != ',' {
			i++
		}
		if detail[:i] == word {
			return true
		}
		if i == len(detail) {
			break
		}
		detail = detail[i+1:]
	}
	return false
}
