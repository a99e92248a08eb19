package bench

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/apps"
)

// Table2Row is one application's offline-phase profile.
type Table2Row struct {
	Name  string
	Sites int
	Paper int
}

// The Table 2 applications the figures, the coverage claim, the probes
// claim and Table 6 also run.
var (
	pwd      = workload{name: "pwd", path: apps.PwdPath, offline: []string{"pwd"}}
	ls       = workload{name: "ls", path: apps.LsPath, offline: []string{"ls", "/data"}}
	cat      = workload{name: "cat", path: apps.CatPath, offline: []string{"cat", "/data/notes.txt"}}
	nginx    = workload{name: "nginx", path: apps.NginxPath, offline: []string{"nginx", "0"}, server: true}
	lighttpd = workload{name: "lighttpd", path: apps.LighttpdPath, offline: []string{"lighttpd", "0"}, server: true}
	redis    = workload{name: "redis", path: apps.RedisPath, offline: []string{"redis-server", "1"}, server: true}
)

// table2Apps lists the Table 2 applications in the paper's order.
var table2Apps = []workload{
	pwd,
	{name: "touch", path: apps.TouchPath, offline: []string{"touch", "/data/new.txt"}},
	ls,
	cat,
	{name: "clear", path: apps.ClearPath, offline: []string{"clear"}},
	{name: "sqlite", path: apps.SqlitePath, offline: []string{"sqlite3", "120"}},
	nginx,
	lighttpd,
	redis,
}

// paperTable2 holds the paper's unique-site counts.
var paperTable2 = map[string]int{
	"pwd": 7, "touch": 9, "ls": 10, "cat": 11, "clear": 13,
	"sqlite": 20, "nginx": 43, "lighttpd": 44, "redis": 92,
}

// Table2 runs the offline phase for every Table 2 application and
// reports the unique syscall-site counts.
func Table2(ctx context.Context) ([]Table2Row, error) {
	var rows []Table2Row
	for _, wl := range table2Apps {
		w, err := World(ctx)
		if err != nil {
			return nil, err
		}
		_, n, err := offline(ctx, w, wl)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", wl.name, err)
		}
		rows = append(rows, Table2Row{Name: wl.name, Sites: n, Paper: paperTable2[wl.name]})
	}
	return rows, nil
}

// FormatTable2 renders the rows next to the paper's counts.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %s\n", "Application", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10d %d\n", r.Name, r.Sites, r.Paper)
	}
	return b.String()
}
