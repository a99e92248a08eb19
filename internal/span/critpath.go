package span

import (
	"fmt"
	"sort"
)

// PhaseCost aggregates self-cycles of one phase under one mechanism.
// Slices already exclude child-span intervals (the builder cuts the
// enclosing slice at every child boundary), so summing slice durations
// yields self-time directly.
type PhaseCost struct {
	Mech   string
	Phase  string
	Count  uint64
	Cycles uint64
}

// BlockedEdge aggregates off-CPU wait per wake reason, in virtual-clock
// units (the thread is not running, so cycle accounts stand still while
// the global clock advances with whoever does run).
type BlockedEdge struct {
	Reason string
	Count  uint64
	Wait   uint64
}

// Report is the output of Analyze.
type Report struct {
	Spans   int
	Forced  int
	Kinds   map[string]int
	Causes  map[string]int
	Phases  []PhaseCost   // sorted by (mech, phase)
	Blocked []BlockedEdge // sorted by reason
}

// PhaseCycles returns the aggregate for one (mech, phase) cell.
func (r *Report) PhaseCycles(mech, phase string) (count, cycles uint64) {
	for _, pc := range r.Phases {
		if pc.Mech == mech && pc.Phase == phase {
			return pc.Count, pc.Cycles
		}
	}
	return 0, 0
}

// mechOf resolves a span's mechanism by walking the parent chain: trap
// spans nested under a handler inherit its mechanism; unattributed spans
// (native kernel work) report "kernel".
func mechOf(sp *Span, byID map[uint64]*Span) string {
	for cur := sp; cur != nil; {
		if cur.Mech != "" {
			return cur.Mech
		}
		if cur.Parent == 0 {
			break
		}
		cur = byID[cur.Parent]
	}
	return "kernel"
}

// Analyze folds the sets into per-mechanism phase costs and blocking
// edges. Deterministic: output ordering depends only on the input sets.
func Analyze(sets ...*Set) *Report {
	rep := &Report{Kinds: make(map[string]int), Causes: make(map[string]int)}
	type key struct{ mech, phase string }
	phases := make(map[key]*PhaseCost)
	blocked := make(map[string]*BlockedEdge)

	for _, s := range Merge(sets) {
		byID := make(map[uint64]*Span, len(s.Spans))
		for _, sp := range s.Spans {
			byID[sp.ID] = sp
		}
		for _, sp := range s.Spans {
			rep.Spans++
			rep.Kinds[sp.Kind]++
			if sp.Forced {
				rep.Forced++
			}
			if sp.CauseKind != "" {
				rep.Causes[sp.CauseKind]++
			}
			mech := mechOf(sp, byID)
			for _, sl := range sp.Slices {
				k := key{mech, sl.Phase}
				pc := phases[k]
				if pc == nil {
					pc = &PhaseCost{Mech: mech, Phase: sl.Phase}
					phases[k] = pc
				}
				pc.Count++
				pc.Cycles += sl.Y1 - sl.Y0
			}
			if sp.Blocked && sp.WakeClock >= sp.C1 {
				be := blocked[sp.WakeReason]
				if be == nil {
					be = &BlockedEdge{Reason: sp.WakeReason}
					blocked[sp.WakeReason] = be
				}
				be.Count++
				be.Wait += sp.WakeClock - sp.C1
			}
		}
	}
	for _, pc := range phases {
		rep.Phases = append(rep.Phases, *pc)
	}
	sort.Slice(rep.Phases, func(i, j int) bool {
		if rep.Phases[i].Mech != rep.Phases[j].Mech {
			return rep.Phases[i].Mech < rep.Phases[j].Mech
		}
		return rep.Phases[i].Phase < rep.Phases[j].Phase
	})
	for _, be := range blocked {
		rep.Blocked = append(rep.Blocked, *be)
	}
	sort.Slice(rep.Blocked, func(i, j int) bool { return rep.Blocked[i].Reason < rep.Blocked[j].Reason })
	return rep
}

// Step is one attribution on a critical path: a phase's self-cycles, or
// an off-CPU blocking edge measured on the virtual clock.
type Step struct {
	Span   uint64
	What   string // phase name, or "blocked:<reason>"
	Mech   string
	Cycles uint64 // on-CPU self cycles (phases)
	Clock  uint64 // off-CPU wait (blocking edges)
}

// CriticalPath attributes the end-to-end latency of one syscall
// lifecycle chain. The chain starts at rootID and follows cause edges
// (block/wake retries, SA_RESTART re-executions, EINTR retries, forward
// edges); each span contributes its slices depth-first with children
// inlined at their boundaries, and each blocked close contributes its
// wait edge. Pass rootID 0 to pick the chain with the largest
// end-to-end clock extent.
func CriticalPath(s *Set, rootID uint64) []Step {
	byID := make(map[uint64]*Span, len(s.Spans))
	succ := make(map[uint64]*Span) // cause id → earliest successor
	kids := make(map[uint64][]*Span)
	for _, sp := range s.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range s.Spans {
		if sp.Cause != 0 {
			if cur, ok := succ[sp.Cause]; !ok || sp.ID < cur.ID {
				succ[sp.Cause] = sp
			}
		}
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	if rootID == 0 {
		rootID = longestChainRoot(s, succ)
	}
	root := byID[rootID]
	if root == nil {
		return nil
	}
	var steps []Step
	for sp := root; sp != nil; sp = succ[sp.ID] {
		steps = appendSpanSteps(steps, sp, byID, kids)
		if sp.Blocked {
			wait := uint64(0)
			if sp.WakeClock >= sp.C1 {
				wait = sp.WakeClock - sp.C1
			}
			steps = append(steps, Step{
				Span: sp.ID, What: "blocked:" + sp.WakeReason, Clock: wait,
			})
		}
	}
	return steps
}

// appendSpanSteps emits sp's slices with child spans inlined between the
// slices they interrupt (children start exactly where a parent slice was
// cut, so ordering by start cycle interleaves correctly).
func appendSpanSteps(steps []Step, sp *Span, byID map[uint64]*Span, kids map[uint64][]*Span) []Step {
	mech := mechOf(sp, byID)
	type item struct {
		y0    uint64
		slice *Slice
		child *Span
	}
	var items []item
	for i := range sp.Slices {
		items = append(items, item{y0: sp.Slices[i].Y0, slice: &sp.Slices[i]})
	}
	for _, c := range kids[sp.ID] {
		items = append(items, item{y0: c.Y0, child: c})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].y0 < items[j].y0 })
	for _, it := range items {
		if it.slice != nil {
			steps = append(steps, Step{
				Span: sp.ID, What: it.slice.Phase, Mech: mech,
				Cycles: it.slice.Y1 - it.slice.Y0,
			})
		} else {
			steps = appendSpanSteps(steps, it.child, byID, kids)
		}
	}
	return steps
}

// longestChainRoot finds the chain head (Cause == 0, kind syscall) whose
// cause-linked chain spans the largest clock extent.
func longestChainRoot(s *Set, succ map[uint64]*Span) uint64 {
	var best uint64
	var bestExtent uint64
	for _, sp := range s.Spans {
		if sp.Cause != 0 || sp.Kind != KindSyscall || sp.Parent != 0 {
			continue
		}
		end := sp
		for n := succ[end.ID]; n != nil; n = succ[end.ID] {
			end = n
		}
		extent := end.C1 - sp.C0
		// Prefer longer chains; break ties toward the earliest root so
		// the choice is deterministic.
		if best == 0 || extent > bestExtent {
			best, bestExtent = sp.ID, extent
		}
	}
	return best
}

// FormatSteps renders a critical path for human consumption.
func FormatSteps(steps []Step) string {
	out := ""
	var cyc, clk uint64
	for _, st := range steps {
		if st.Clock > 0 || st.Cycles == 0 && st.What[0] == 'b' {
			out += fmt.Sprintf("  span %-4d %-24s %12d clk\n", st.Span, st.What, st.Clock)
			clk += st.Clock
			continue
		}
		out += fmt.Sprintf("  span %-4d %-24s %12d cyc  (%s)\n", st.Span, st.What, st.Cycles, st.Mech)
		cyc += st.Cycles
	}
	out += fmt.Sprintf("  total on-cpu %d cyc, off-cpu %d clk\n", cyc, clk)
	return out
}
