package bench

import (
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
)

// Sizes of the Table 6 slopes: requests for a server, speedtest1
// operations for sqlite.
const (
	macroR1    = 40
	macroR2    = 240
	sqliteOps1 = 300
	sqliteOps2 = 1500
)

// macroConfig is one Table 6 row.
type macroConfig struct {
	// name is the paper's row label.
	name string
	wl   workload
	// workers is the process count (nginx/lighttpd worker model).
	workers int
	// clientCap is the benchmarking client's capacity in requests per
	// second on the shared machine; throughput is min(client, server).
	// Zero means the client is never the bottleneck.
	clientCap float64
	// redisMain marks the redis 6-I/O-thread configuration: the serial
	// main thread (5 futex wakeups + command execution per request) is
	// measured separately and bounds throughput.
	redisMain bool
}

// macroConfigs returns the Table 6 rows in paper order. A server row
// reports throughput; sqlite, the one other row, completion time.
//
// Client capacities model wrk/redis-benchmark sharing the machine
// (paper: clients and servers colocated). For the HTTP workloads the
// client keeps up; for redis the single-threaded benchmark client binds
// the 1-I/O-thread configuration — which is why interposition is nearly
// invisible there, and why the 6-thread configuration collapses under
// SUD (the serial main thread absorbs the signal costs), reproducing the
// paper's redis anomaly.
func macroConfigs() []macroConfig {
	nginx4 := workload{name: "nginx", path: apps.NginxPath, offline: []string{"nginx", "4"}, server: true}
	lighttpd4 := workload{name: "lighttpd", path: apps.LighttpdPath, offline: []string{"lighttpd", "4"}, server: true}
	redisIO := workload{name: "redis", path: apps.RedisPath, offline: []string{"redis-server", "io"}, server: true}
	speedtest := workload{name: "sqlite", path: apps.SqlitePath, offline: []string{"sqlite3", "120"}, sized: true}
	return []macroConfig{
		{"nginx (1 worker, 0 KB)", nginx, 1, 0, false},
		{"nginx (1 worker, 4 KB)", nginx4, 1, 0, false},
		{"nginx (10 workers, 0 KB)", nginx, 10, 0, false},
		{"nginx (10 workers, 4 KB)", nginx4, 10, 0, false},
		{"lighttpd (1 worker, 0 KB)", lighttpd, 1, 0, false},
		{"lighttpd (1 worker, 4 KB)", lighttpd4, 1, 0, false},
		{"lighttpd (10 workers, 0 KB)", lighttpd, 10, 0, false},
		{"lighttpd (10 workers, 4 KB)", lighttpd4, 10, 0, false},
		{"redis (1 I/O thread)", redis, 1, 145_000, false},
		{"redis (6 I/O threads)", redisIO, 6, 400_000, true},
		{"sqlite (speedtest1, size 800)", speedtest, 1, 0, false},
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

// table6Variants lists the Table 6 columns.
func table6Variants() []string {
	return []string{
		"zpoline-default", "zpoline-ultra", "lazypoline",
		"k23-default", "k23-ultra", "k23-ultra+", "sud",
	}
}

// redisMain is the redis main-thread binary: a fixed count of
// iterations, apps.RedisMainIters, with no connection to serve.
var redisMain = workload{name: "redis-main", path: apps.RedisPath, offline: []string{"redis-server", "main"}}

// slopes keeps the slopes one Table 6 measurement has taken, keyed by
// mechanism and argv. A slope does not depend on workers (the model has
// no contention between workers), so a 10-worker row reuses its
// 1-worker row's slope.
type slopes map[string]float64

// of returns wl's marginal cycles per request (a server) or per
// operation (sqlite) under spec, measured once per key.
func (s slopes) of(spec variants.Spec, wl workload) (float64, error) {
	key := spec.Name + "\x00" + strings.Join(wl.offline, "\x00")
	if v, ok := s[key]; ok {
		return v, nil
	}
	n1, n2 := macroR1, macroR2
	if !wl.server {
		n1, n2 = sqliteOps1, sqliteOps2
	}
	v, err := slope(spec, wl, nil, n1, n2)
	if err == nil {
		s[key] = v
	}
	return v, err
}

// value returns cfg's Table 6 quantity under spec: a server's req/s,
// or sqlite's cycles per operation (completion time per op, startup
// excluded, matching the paper's long-running speedtest1).
func (s slopes) value(spec variants.Spec, cfg macroConfig) (float64, error) {
	perUnit, err := s.of(spec, cfg.wl)
	if err != nil || !cfg.wl.server {
		return perUnit, err
	}
	server := float64(cfg.workers) * kernel.CyclesPerSecond / perUnit
	if cfg.redisMain {
		// The main thread's serial cost per request: one run's cycles,
		// startup included, over its fixed iteration count.
		_, ps, err := measure(spec, redisMain, nil, 0)
		if err != nil {
			return 0, err
		}
		mainPerReq := float64(cycles(ps[0])) / float64(apps.RedisMainIters)
		serial := kernel.CyclesPerSecond / mainPerReq
		if serial < server {
			server = serial
		}
	}
	if cfg.clientCap > 0 && cfg.clientCap < server {
		return cfg.clientCap, nil
	}
	return server, nil
}

// row measures one configuration across all variants, reusing the
// slopes s already holds.
func (s slopes) row(cfg macroConfig) (MacroRow, error) {
	row := MacroRow{Config: cfg.name, Relative: map[string]float64{}}
	nativeSpec, _ := variants.ByName("native")
	native, err := s.value(nativeSpec, cfg)
	if err != nil {
		return row, err
	}
	if cfg.wl.server {
		row.Native = native
	}
	for _, name := range table6Variants() {
		spec, _ := variants.ByName(name)
		v, err := s.value(spec, cfg)
		if err != nil {
			return row, fmt.Errorf("%s under %s: %w", cfg.name, name, err)
		}
		if cfg.wl.server {
			row.Relative[name] = 100 * v / native
		} else {
			// relative runtime = native_time / interposed_time x 100.
			row.Relative[name] = 100 * native / v
		}
	}
	return row, nil
}

// Table6 measures every configuration, each slope once.
func Table6() ([]MacroRow, error) {
	var rows []MacroRow
	s := slopes{}
	for _, cfg := range macroConfigs() {
		row, err := s.row(cfg)
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
	cols := table6Variants()
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
