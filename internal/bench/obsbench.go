package bench

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/interpose/variants"
	"k23/internal/obsv"
)

// SidecarRow is the per-variant observability summary printed next to
// the benchmark tables: one instrumented representative run per
// variant, broken down by interposition path.
type SidecarRow struct {
	Variant string
	Snap    *obsv.MetricsSnapshot
}

// sidecarIters is the loop count of the sidecar's representative run —
// large enough that per-mechanism counts dominate startup noise, small
// enough to stay instant.
const sidecarIters = 400

// MetricsSidecar runs the microbenchmark once per variant with the
// metrics collector installed and returns the per-variant snapshots.
// The observer attaches after any offline phase, so the sidecar
// describes the interposed online run only.
func MetricsSidecar(ctx context.Context, names []string) ([]SidecarRow, error) {
	rows := make([]SidecarRow, 0, len(names))
	for _, name := range names {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		snap, err := observe(ctx, spec, micro, obsv.New(obsv.Options{Metrics: true}), sidecarIters)
		if err != nil {
			return nil, fmt.Errorf("bench: sidecar %s: %w", name, err)
		}
		rows = append(rows, SidecarRow{Variant: name, Snap: snap.Metrics})
	}
	return rows, nil
}

// FormatMetricsSidecar renders the sidecar: syscall volume, error rate,
// mean per-call cost, per-mechanism attribution, decode-cache hit rate.
func FormatMetricsSidecar(rows []SidecarRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-10s %-8s %-12s %-10s %s\n",
		"Variant", "syscalls", "errors", "mean-cycles", "hit-rate", "by-mechanism")
	for _, r := range rows {
		var calls, errs, cycles uint64
		for i := range r.Snap.Syscalls {
			s := &r.Snap.Syscalls[i]
			calls += s.Count
			errs += s.Errors
			cycles += s.Hist.Sum
		}
		mean := 0.0
		if calls != 0 {
			mean = float64(cycles) / float64(calls)
		}
		mechs := make([]string, 0, len(r.Snap.Mechanisms))
		for _, m := range r.Snap.Mechanisms {
			mechs = append(mechs, fmt.Sprintf("%s=%d", m.Mechanism, m.Count))
		}
		mech := strings.Join(mechs, " ")
		if mech == "" {
			mech = "-"
		}
		fmt.Fprintf(&b, "%-22s %-10d %-8d %-12.1f %-10s %s\n",
			r.Variant, calls, errs, mean,
			fmt.Sprintf("%.1f%%", r.Snap.DecodeCache.HitRate()*100), mech)
	}
	return b.String()
}
