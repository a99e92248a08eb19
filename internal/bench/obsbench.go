package bench

import (
	"fmt"
	"strings"
	"time"

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
func MetricsSidecar(names []string) ([]SidecarRow, error) {
	rows := make([]SidecarRow, 0, len(names))
	for _, name := range names {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		w := MicroWorld()
		l, err := MicroLauncher(w, spec)
		if err != nil {
			return nil, err
		}
		obs := obsv.New(obsv.Options{Metrics: true})
		obs.Install(w.K)
		if _, err := runMicroOnce(w, l, sidecarIters); err != nil {
			return nil, fmt.Errorf("bench: sidecar %s: %w", name, err)
		}
		rows = append(rows, SidecarRow{Variant: name, Snap: obs.Snapshot().Metrics})
	}
	return rows, nil
}

// ObsOverheadRow is one configuration of the observability overhead
// claim: the Table 2 micro workload under one interposer with a given
// collector set, reporting simulator throughput.
type ObsOverheadRow struct {
	Config     string
	Insts      uint64
	Wall       time.Duration
	Regression float64 // wall-time ratio vs the no-observer run
}

// obsOverheadIters is the micro loop count for the overhead claim —
// long enough that the interposed syscall path dominates setup.
const obsOverheadIters = 20000

// obsOverheadRounds interleaves the configs so slow host drift hits
// every config equally; min-of-rounds then drops scheduler noise.
const obsOverheadRounds = 5

// obsOverheadOnce runs the micro workload once under spec with opts
// (installEmpty additionally installs an all-off observer, proving the
// disabled path costs nothing) and returns instructions retired and the
// wall time of the instrumented run.
func obsOverheadOnce(spec variants.Spec, opts obsv.Options, installEmpty bool) (uint64, time.Duration, error) {
	w := MicroWorld()
	l, err := MicroLauncher(w, spec)
	if err != nil {
		return 0, 0, err
	}
	if opts.Enabled() || installEmpty {
		obsv.New(opts).Install(w.K)
	}
	start := time.Now()
	p, err := l.Launch(w, MicroPath, []string{"micro", fmt.Sprintf("%d", obsOverheadIters)}, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := w.K.RunUntilExit(p, 2_000_000_000); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	var insts uint64
	for _, t := range p.Threads {
		insts += t.Core.Insts
	}
	return insts, wall, nil
}

// obsOverheadProbe is the probe program the overhead claim's probes row
// runs — the hot path pays one match per syscall exit plus a histogram
// bump, and the disabled path stays the usual single nil-check.
const obsOverheadProbe = `syscall:*:exit { hist(cycles) by (mech) }`

// MeasureObsOverhead measures the wall-clock cost of each collector set
// on the Table 2 micro workload under variantName (EXPERIMENTS.md E15).
func MeasureObsOverhead(variantName string) ([]ObsOverheadRow, error) {
	spec, ok := variants.ByName(variantName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown variant %s", variantName)
	}
	probes, err := obsv.CompileProbes(obsOverheadProbe)
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name         string
		opts         obsv.Options
		installEmpty bool
	}{
		{"no observer", obsv.Options{}, false},
		{"observer, all off", obsv.Options{}, true},
		{"metrics", obsv.Options{Metrics: true}, false},
		{"audit", obsv.Options{Audit: true}, false},
		{"spans", obsv.Options{Spans: true}, false},
		{"probes", obsv.Options{Probes: probes, ProbeMech: variantName}, false},
		{"trace[512]+metrics", obsv.Options{Trace: true, RingSize: 512, Metrics: true}, false},
		{"trace+metrics", obsv.Options{Trace: true, Metrics: true}, false},
		{"trace+metrics+profile", obsv.Options{Trace: true, Metrics: true, ProfileEvery: obsv.DefaultProfileEvery}, false},
	}
	rows := make([]ObsOverheadRow, len(configs))
	for round := 0; round < obsOverheadRounds; round++ {
		for i, c := range configs {
			insts, wall, err := obsOverheadOnce(spec, c.opts, c.installEmpty)
			if err != nil {
				return nil, fmt.Errorf("bench: obsoverhead %s: %w", c.name, err)
			}
			if round == 0 || wall < rows[i].Wall {
				rows[i] = ObsOverheadRow{Config: c.name, Insts: insts, Wall: wall}
			}
		}
	}
	base := rows[0].Wall
	for i := range rows {
		rows[i].Regression = float64(rows[i].Wall)/float64(base) - 1
	}
	return rows, nil
}

// FormatObsOverhead renders the overhead claim table.
func FormatObsOverhead(variantName string, rows []ObsOverheadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "variant: %s, micro loop x%d, best-of-5 interleaved wall time\n", variantName, obsOverheadIters)
	fmt.Fprintf(&b, "%-24s %-12s %-12s %-10s %s\n", "Config", "insts", "wall", "Minsts/s", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-12d %-12s %-10.1f %+.1f%%\n",
			r.Config, r.Insts, r.Wall.Round(time.Microsecond),
			float64(r.Insts)/r.Wall.Seconds()/1e6, r.Regression*100)
	}
	return b.String()
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
