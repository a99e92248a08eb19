package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"k23/internal/apps"
	"k23/internal/fleet"
	"k23/internal/interpose"
)

// FleetMicroMachines builds n CPU-bound machines, each running the
// Table 5 syscall stress loop for iters iterations. The fleet is
// deterministic: machine i always gets the same seed.
func FleetMicroMachines(n, iters int) []fleet.Machine {
	out := make([]fleet.Machine, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fleet.Machine{
			Name: fmt.Sprintf("micro-%02d", i),
			Seed: uint64(i)*0x9e3779b97f4a7c15 + 1,
			Path: MicroPath,
			Argv: []string{"micro", fmt.Sprintf("%d", iters)},
			Setup: func(w *interpose.World) error {
				w.MustRegister(microImage())
				return nil
			},
		})
	}
	return out
}

// FleetMacroMachines builds n redis-like server machines, each driven
// with requests keepalive requests (the Table 6 redis row's workload).
func FleetMacroMachines(n, requests int) []fleet.Machine {
	out := make([]fleet.Machine, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fleet.Machine{
			Name:     fmt.Sprintf("redis-%02d", i),
			Seed:     uint64(i)*0x9e3779b97f4a7c15 + 1,
			Path:     apps.RedisPath,
			Argv:     []string{"redis-server", "1"},
			Server:   true,
			Requests: requests,
		})
	}
	return out
}

// FleetScalingRow is one (worker count, fleet report) measurement.
type FleetScalingRow struct {
	Workers int
	Report  *fleet.Report
}

// MeasureFleetScaling runs the same fleet once per worker count, with
// the Options template applied to every run (Workers is overridden per
// row), and returns one row per count. Any machine error fails the
// measurement.
func MeasureFleetScaling(ctx context.Context, machines []fleet.Machine, workerCounts []int, tmpl fleet.Options) ([]FleetScalingRow, error) {
	var rows []FleetScalingRow
	for _, w := range workerCounts {
		opt := tmpl
		opt.Workers = w
		rep, err := fleet.Run(ctx, machines, opt)
		if err != nil {
			return nil, err
		}
		if err := rep.FirstErr(); err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		rows = append(rows, FleetScalingRow{Workers: w, Report: rep})
	}
	return rows, nil
}

// FormatFleetScaling renders the workers-vs-throughput scaling table
// (EXPERIMENTS.md E14). Speedup is relative to the first row.
func FormatFleetScaling(rows []FleetScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host: %d CPUs (speedup is bounded by available cores)\n", runtime.NumCPU())
	fmt.Fprintf(&b, "%-9s %-10s %-14s %-14s %-9s %s\n",
		"workers", "machines", "steps/s", "machines/s", "speedup", "wall")
	base := 0.0
	if len(rows) > 0 {
		base = rows[0].Report.StepsPerSec()
	}
	for _, r := range rows {
		speedup := 0.0
		if base > 0 {
			speedup = r.Report.StepsPerSec() / base
		}
		fmt.Fprintf(&b, "%-9d %-10d %-14s %-14s %-9s %s\n",
			r.Workers, len(r.Report.Machines),
			fmt.Sprintf("%.2fM", r.Report.StepsPerSec()/1e6),
			fmt.Sprintf("%.1f", r.Report.MachinesPerSec()),
			fmt.Sprintf("%.2fx", speedup),
			r.Report.Wall.Round(1e6))
	}
	return b.String()
}
