package bench

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// Request counts for the per-request slope measurement.
const (
	macroR1 = 40
	macroR2 = 240
)

// MacroConfig is one Table 6 row.
type MacroConfig struct {
	// Name matches the paper's row label.
	Name string
	Path string
	Argv []string
	// Workers is the process count (nginx/lighttpd worker model).
	Workers int
	// ClientCap is the benchmarking client's capacity in requests per
	// second on the shared machine; throughput is min(client, server).
	// Zero means the client is never the bottleneck.
	ClientCap float64
	// RedisMain marks the redis 6-I/O-thread configuration: the serial
	// main thread (5 futex wakeups + command execution per request) is
	// measured separately and bounds throughput.
	RedisMain bool
	// Sqlite marks the completion-time (not throughput) workload.
	Sqlite bool
	// OfflineArgv overrides Argv for the offline profiling run.
	OfflineArgv []string
}

// MacroConfigs returns the Table 6 rows in paper order.
//
// Client capacities model wrk/redis-benchmark sharing the machine
// (paper: clients and servers colocated). For the HTTP workloads the
// client keeps up; for redis the single-threaded benchmark client binds
// the 1-I/O-thread configuration — which is why interposition is nearly
// invisible there, and why the 6-thread configuration collapses under
// SUD (the serial main thread absorbs the signal costs), reproducing the
// paper's redis anomaly.
func MacroConfigs() []MacroConfig {
	return []MacroConfig{
		{Name: "nginx (1 worker, 0 KB)", Path: apps.NginxPath, Argv: []string{"nginx", "0"}, Workers: 1},
		{Name: "nginx (1 worker, 4 KB)", Path: apps.NginxPath, Argv: []string{"nginx", "4"}, Workers: 1},
		{Name: "nginx (10 workers, 0 KB)", Path: apps.NginxPath, Argv: []string{"nginx", "0"}, Workers: 10},
		{Name: "nginx (10 workers, 4 KB)", Path: apps.NginxPath, Argv: []string{"nginx", "4"}, Workers: 10},
		{Name: "lighttpd (1 worker, 0 KB)", Path: apps.LighttpdPath, Argv: []string{"lighttpd", "0"}, Workers: 1},
		{Name: "lighttpd (1 worker, 4 KB)", Path: apps.LighttpdPath, Argv: []string{"lighttpd", "4"}, Workers: 1},
		{Name: "lighttpd (10 workers, 0 KB)", Path: apps.LighttpdPath, Argv: []string{"lighttpd", "0"}, Workers: 10},
		{Name: "lighttpd (10 workers, 4 KB)", Path: apps.LighttpdPath, Argv: []string{"lighttpd", "4"}, Workers: 10},
		{Name: "redis (1 I/O thread)", Path: apps.RedisPath, Argv: []string{"redis-server", "1"}, Workers: 1,
			ClientCap: 145_000},
		{Name: "redis (6 I/O threads)", Path: apps.RedisPath, Argv: []string{"redis-server", "io"}, Workers: 6,
			ClientCap: 400_000, RedisMain: true},
		{Name: "sqlite (speedtest1, size 800)", Path: apps.SqlitePath, Argv: []string{"sqlite3"}, Workers: 1,
			Sqlite: true, OfflineArgv: []string{"sqlite3", "120"}},
	}
}

// MacroRow is one measured Table 6 cell group.
type MacroRow struct {
	Config string
	// Native is the native throughput in req/s (0 for sqlite).
	Native float64
	// Relative maps variant name -> % of native.
	Relative map[string]float64
}

// Table6Variants lists the Table 6 columns.
func Table6Variants() []string {
	return []string{
		"zpoline-default", "zpoline-ultra", "lazypoline",
		"k23-default", "k23-ultra", "k23-ultra+", "sud",
	}
}

// macroWorld builds a fresh world with workloads registered.
func macroWorld() (*interpose.World, error) {
	w := interpose.NewWorld()
	return w, machine.StandardSetup(w)
}

// serveRequests launches one server worker under l, drives r keepalive
// requests through it, and returns the worker's total cycles.
func serveRequests(w *interpose.World, l interpose.Launcher, cfg MacroConfig, r int) (uint64, error) {
	p, err := l.Launch(w, cfg.Path, cfg.Argv, nil)
	if err != nil {
		return 0, err
	}
	if err := machine.Listen(context.Background(), w.K, p, make([]byte, apps.RequestSize), r); err != nil {
		return 0, fmt.Errorf("bench: %s under %s: %w", cfg.Name, l.Name(), err)
	}
	if err := w.K.RunUntilExit(p, 3_000_000_000); err != nil {
		return 0, err
	}
	if p.Exit.Signal != 0 {
		return 0, fmt.Errorf("bench: %s under %s died: %s", cfg.Name, l.Name(), p.Exit)
	}
	var cycles uint64
	for _, t := range p.Threads {
		cycles += t.Cycles()
	}
	return cycles, nil
}

// runToExit launches a non-server workload and returns total cycles.
func runToExit(w *interpose.World, l interpose.Launcher, path string, argv []string) (uint64, error) {
	p, err := l.Launch(w, path, argv, nil)
	if err != nil {
		return 0, err
	}
	if err := w.K.RunUntilExit(p, 3_000_000_000); err != nil {
		return 0, err
	}
	if p.Exit.Signal != 0 {
		return 0, fmt.Errorf("bench: %s under %s died: %s", path, l.Name(), p.Exit)
	}
	var cycles uint64
	for _, t := range p.Threads {
		cycles += t.Cycles()
	}
	return cycles, nil
}

// macroLauncher returns spec's launcher for a macro workload in w,
// running the offline phase first when spec needs a log (servers get a
// representative request stream, §6.2).
func macroLauncher(w *interpose.World, spec variants.Spec, cfg MacroConfig) (interpose.Launcher, error) {
	argv, requests := cfg.Argv, 40
	if cfg.OfflineArgv != nil {
		argv = cfg.OfflineArgv
	}
	if cfg.Sqlite {
		requests = 0
	}
	return machine.Launcher(context.Background(), w, spec, interpose.Config{}, cfg.Path, argv, requests)
}

// cyclesPerRequest measures the marginal per-request cycle cost via the
// two-point slope.
func cyclesPerRequest(spec variants.Spec, cfg MacroConfig) (float64, error) {
	w, err := macroWorld()
	if err != nil {
		return 0, err
	}
	l, err := macroLauncher(w, spec, cfg)
	if err != nil {
		return 0, err
	}
	c1, err := serveRequests(w, l, cfg, macroR1)
	if err != nil {
		return 0, err
	}
	c2, err := serveRequests(w, l, cfg, macroR2)
	if err != nil {
		return 0, err
	}
	return float64(c2-c1) / float64(macroR2-macroR1), nil
}

// redisMainCycles measures the redis main-thread component: per-request
// serial work (5 futex wakeups + command execution), via a slope over
// the fixed-iteration main-mode binary run at two... the binary has a
// fixed iteration count, so measure one run and divide.
func redisMainCycles(spec variants.Spec) (float64, error) {
	w, err := macroWorld()
	if err != nil {
		return 0, err
	}
	mainCfg := MacroConfig{
		Path:        apps.RedisPath,
		Argv:        []string{"redis-server", "main"},
		Sqlite:      true, // no connection driving
		OfflineArgv: []string{"redis-server", "main"},
	}
	l, err := macroLauncher(w, spec, mainCfg)
	if err != nil {
		return 0, err
	}
	total, err := runToExit(w, l, apps.RedisPath, []string{"redis-server", "main"})
	if err != nil {
		return 0, err
	}
	// Startup costs are non-negligible relative to the fixed iteration
	// count; subtract a zero-work baseline? The iteration body dominates
	// (futexes + exec work), so dividing by the count is adequate for
	// the capacity bound.
	return float64(total) / float64(apps.RedisMainIters), nil
}

// throughput computes a configuration's req/s under a variant.
func throughput(spec variants.Spec, cfg MacroConfig) (float64, error) {
	perReq, err := cyclesPerRequest(spec, cfg)
	if err != nil {
		return 0, err
	}
	server := float64(cfg.Workers) * kernel.CyclesPerSecond / perReq
	if cfg.RedisMain {
		mainPerReq, err := redisMainCycles(spec)
		if err != nil {
			return 0, err
		}
		serial := kernel.CyclesPerSecond / mainPerReq
		if serial < server {
			server = serial
		}
	}
	if cfg.ClientCap > 0 && cfg.ClientCap < server {
		return cfg.ClientCap, nil
	}
	return server, nil
}

// sqliteCycles measures the marginal per-operation cycle cost of the
// sqlite workload via the two-point slope (completion time per op,
// startup excluded, matching the paper's long-running speedtest1).
func sqliteCycles(spec variants.Spec, cfg MacroConfig) (float64, error) {
	w, err := macroWorld()
	if err != nil {
		return 0, err
	}
	l, err := macroLauncher(w, spec, cfg)
	if err != nil {
		return 0, err
	}
	const ops1, ops2 = 300, 1500
	c1, err := runToExit(w, l, cfg.Path, []string{cfg.Argv[0], fmt.Sprintf("%d", ops1)})
	if err != nil {
		return 0, err
	}
	c2, err := runToExit(w, l, cfg.Path, []string{cfg.Argv[0], fmt.Sprintf("%d", ops2)})
	if err != nil {
		return 0, err
	}
	return float64(c2-c1) / float64(ops2-ops1), nil
}

// Table6Row measures one configuration across all variants.
func Table6Row(cfg MacroConfig) (MacroRow, error) {
	row := MacroRow{Config: cfg.Name, Relative: map[string]float64{}}
	nativeSpec, _ := variants.ByName("native")

	measure := func(spec variants.Spec) (float64, error) {
		if cfg.Sqlite {
			return sqliteCycles(spec, cfg)
		}
		return throughput(spec, cfg)
	}

	native, err := measure(nativeSpec)
	if err != nil {
		return row, err
	}
	if !cfg.Sqlite {
		row.Native = native
	}
	for _, name := range Table6Variants() {
		spec, _ := variants.ByName(name)
		v, err := measure(spec)
		if err != nil {
			return row, fmt.Errorf("%s under %s: %w", cfg.Name, name, err)
		}
		if cfg.Sqlite {
			// relative runtime = native_time / interposed_time x 100.
			row.Relative[name] = 100 * native / v
		} else {
			row.Relative[name] = 100 * v / native
		}
	}
	return row, nil
}

// Table6 measures every configuration.
func Table6() ([]MacroRow, error) {
	var rows []MacroRow
	for _, cfg := range MacroConfigs() {
		row, err := Table6Row(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PaperTable6 holds the paper's relative-throughput percentages.
var PaperTable6 = map[string]map[string]float64{
	"nginx (1 worker, 0 KB)":        {"zpoline-default": 99.05, "zpoline-ultra": 98.40, "lazypoline": 97.85, "k23-default": 97.94, "k23-ultra": 97.29, "k23-ultra+": 96.70, "sud": 51.29},
	"nginx (1 worker, 4 KB)":        {"zpoline-default": 96.73, "zpoline-ultra": 96.14, "lazypoline": 96.04, "k23-default": 96.24, "k23-ultra": 95.89, "k23-ultra+": 95.76, "sud": 45.95},
	"nginx (10 workers, 0 KB)":      {"zpoline-default": 99.62, "zpoline-ultra": 99.34, "lazypoline": 98.79, "k23-default": 99.52, "k23-ultra": 98.39, "k23-ultra+": 97.83, "sud": 53.93},
	"nginx (10 workers, 4 KB)":      {"zpoline-default": 98.83, "zpoline-ultra": 98.76, "lazypoline": 98.14, "k23-default": 98.59, "k23-ultra": 98.12, "k23-ultra+": 98.23, "sud": 53.97},
	"lighttpd (1 worker, 0 KB)":     {"zpoline-default": 98.76, "zpoline-ultra": 99.48, "lazypoline": 98.23, "k23-default": 99.15, "k23-ultra": 97.89, "k23-ultra+": 97.50, "sud": 61.25},
	"lighttpd (1 worker, 4 KB)":     {"zpoline-default": 99.28, "zpoline-ultra": 98.37, "lazypoline": 97.93, "k23-default": 98.56, "k23-ultra": 98.01, "k23-ultra+": 97.62, "sud": 61.62},
	"lighttpd (10 workers, 0 KB)":   {"zpoline-default": 98.77, "zpoline-ultra": 98.60, "lazypoline": 98.18, "k23-default": 98.16, "k23-ultra": 98.36, "k23-ultra+": 97.69, "sud": 59.83},
	"lighttpd (10 workers, 4 KB)":   {"zpoline-default": 99.17, "zpoline-ultra": 98.98, "lazypoline": 98.67, "k23-default": 99.01, "k23-ultra": 98.65, "k23-ultra+": 98.62, "sud": 65.06},
	"redis (1 I/O thread)":          {"zpoline-default": 100.00, "zpoline-ultra": 99.93, "lazypoline": 99.98, "k23-default": 100.21, "k23-ultra": 100.17, "k23-ultra+": 99.90, "sud": 96.15},
	"redis (6 I/O threads)":         {"zpoline-default": 99.94, "zpoline-ultra": 99.80, "lazypoline": 99.80, "k23-default": 99.97, "k23-ultra": 99.97, "k23-ultra+": 99.95, "sud": 35.75},
	"sqlite (speedtest1, size 800)": {"zpoline-default": 98.12, "zpoline-ultra": 97.80, "lazypoline": 97.31, "k23-default": 97.56, "k23-ultra": 97.13, "k23-ultra+": 97.20, "sud": 55.90},
}

// FormatTable6 renders rows with measured vs paper values.
func FormatTable6(rows []MacroRow) string {
	var b strings.Builder
	cols := Table6Variants()
	fmt.Fprintf(&b, "%-30s %12s", "Application (workload)", "native r/s")
	for _, c := range cols {
		fmt.Fprintf(&b, " %18s", c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		nat := "N/A"
		if r.Native > 0 {
			nat = fmt.Sprintf("%.0f", r.Native)
		}
		fmt.Fprintf(&b, "%-30s %12s", r.Config, nat)
		for _, c := range cols {
			paper := PaperTable6[r.Config][c]
			fmt.Fprintf(&b, "   %5.1f%% (p%5.1f)", r.Relative[c], paper)
		}
		b.WriteString("\n")
	}
	return b.String()
}
