package bench

import (
	"fmt"
	"strings"

	"k23/internal/interpose/variants"
	"k23/internal/obsv"
	"k23/internal/span"
)

// PhaseColumns are the span-slice phases the decomposition reports, in
// lifecycle order. "other" (dispatch cost charged outside any span —
// hostcall entry/exit, trampolines, signal-frame setup the spans cannot
// see) is computed as the residual against the total slope.
var PhaseColumns = []string{"trap", "signal", "handler", "hook", "emulate", "forward", "kernel"}

// PhasesRow decomposes one variant's Table 5 per-iteration cost into
// span-attributed phase self-cycles plus a dispatch residual.
type PhasesRow struct {
	Name string
	// Total is the per-iteration marginal cycle cost — the same slope
	// Table 5 reports, so the columns add up to the paper's numbers.
	Total float64
	// Phases maps each PhaseColumns entry to its per-iteration
	// self-cycle slope.
	Phases map[string]float64
	// Other is Total minus the attributed phases: dispatch work charged
	// to the thread outside any span slice.
	Other float64
}

// measurePhasesOnce runs the micro workload for n iterations in a fresh
// world under spec with a span observer attached at the production
// boundary, returning total main-thread cycles and per-phase attributed
// self-cycles. The span observer rides side-streams, so the cycle
// numbers are identical to an unobserved run (the E15 non-perturbation
// property); the slope over two sizes then cancels launch and offline
// fixed costs exactly as MicroSlope does.
func measurePhasesOnce(spec variants.Spec, n int) (uint64, map[string]uint64, error) {
	w := MicroWorld()
	l, err := MicroLauncher(w, spec)
	if err != nil {
		return 0, nil, err
	}
	obs := obsv.New(obsv.Options{Spans: true})
	obs.Install(w.K)
	total, err := runMicroOnce(w, l, n)
	if err != nil {
		return 0, nil, err
	}
	rep := span.Analyze(obs.Snapshot().Spans...)
	attributed := make(map[string]uint64)
	for _, pc := range rep.Phases {
		attributed[pc.Phase] += pc.Cycles
	}
	return total, attributed, nil
}

// MeasurePhases decomposes the Table 5 microbenchmark cost of every
// variant into lifecycle phases (E20). Each variant runs at two sizes;
// per-phase slopes attribute the marginal per-iteration cost, and the
// residual against the total slope is the un-spanned dispatch cost.
func MeasurePhases() ([]PhasesRow, error) {
	names := append([]string{"native"}, Table5Variants()...)
	rows := make([]PhasesRow, 0, len(names))
	for _, name := range names {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		t1, a1, err := measurePhasesOnce(spec, microN1)
		if err != nil {
			return nil, fmt.Errorf("bench: phases %s: %w", name, err)
		}
		t2, a2, err := measurePhasesOnce(spec, microN2)
		if err != nil {
			return nil, fmt.Errorf("bench: phases %s: %w", name, err)
		}
		d := float64(microN2 - microN1)
		row := PhasesRow{
			Name:   name,
			Total:  float64(t2-t1) / d,
			Phases: make(map[string]float64, len(PhaseColumns)),
		}
		var attributed float64
		for _, ph := range PhaseColumns {
			v := (float64(a2[ph]) - float64(a1[ph])) / d
			row.Phases[ph] = v
			attributed += v
		}
		row.Other = row.Total - attributed
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPhases renders the decomposition: one variant per row, one
// lifecycle phase per column, all in per-iteration cycles. The "total"
// column is Table 5's cycles/iter, so each row is that table's number
// split by where the cycles actually went.
func FormatPhases(rows []PhasesRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "Interposer")
	for _, ph := range PhaseColumns {
		fmt.Fprintf(&b, " %9s", ph)
	}
	fmt.Fprintf(&b, " %9s %9s\n", "other", "total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", r.Name)
		for _, ph := range PhaseColumns {
			fmt.Fprintf(&b, " %9.1f", r.Phases[ph])
		}
		fmt.Fprintf(&b, " %9.1f %9.1f\n", r.Other, r.Total)
	}
	return b.String()
}
