package bench

import (
	"fmt"
	"strings"

	"k23/internal/interpose"
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

// MeasurePhases decomposes the Table 5 microbenchmark cost of every
// variant into lifecycle phases (E20). Each variant runs at two sizes in
// one world, with a span observer attached at the production boundary;
// each run is credited with the spans of its own process. The span
// observer rides side-streams, so the cycle numbers are identical to an
// unobserved run (the E15 non-perturbation property): the total slope is
// Table 5's, per-phase slopes attribute it, and the residual is the
// un-spanned dispatch cost.
func MeasurePhases() ([]PhasesRow, error) {
	names := append([]string{"native"}, Table5Variants()...)
	rows := make([]PhasesRow, 0, len(names))
	for _, name := range names {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		o := obsv.New(obsv.Options{Spans: true})
		_, ps, err := measure(spec, micro, func(w *interpose.World) { o.Install(w.K) }, microN1, microN2)
		if err != nil {
			return nil, fmt.Errorf("bench: phases %s: %w", name, err)
		}
		all := o.SpanBuilder.Finish()
		var total [2]uint64
		var phases [2]map[string]uint64
		for i, p := range ps {
			total[i] = cycles(p)
			own := &span.Set{}
			for _, sp := range all.Spans {
				if sp.PID == p.PID {
					own.Spans = append(own.Spans, sp)
				}
			}
			phases[i] = map[string]uint64{}
			for _, pc := range span.Analyze(own).Phases {
				phases[i][pc.Phase] += pc.Cycles
			}
		}
		d := float64(microN2 - microN1)
		row := PhasesRow{
			Name:   name,
			Total:  float64(total[1]-total[0]) / d,
			Phases: make(map[string]float64, len(PhaseColumns)),
		}
		var attributed float64
		for _, ph := range PhaseColumns {
			v := (float64(phases[1][ph]) - float64(phases[0][ph])) / d
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
