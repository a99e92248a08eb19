package bench

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/machine"
)

// Table2Row is one application's offline-phase profile.
type Table2Row struct {
	Name  string
	Sites int
	Paper int
}

// table2Workloads lists the Table 2 applications with the paper's counts.
var table2Workloads = []struct {
	name     string
	path     string
	argv     []string
	server   bool
	requests int
	paper    int
}{
	{"pwd", apps.PwdPath, []string{"pwd"}, false, 0, 7},
	{"touch", apps.TouchPath, []string{"touch", "/data/new.txt"}, false, 0, 9},
	{"ls", apps.LsPath, []string{"ls", "/data"}, false, 0, 10},
	{"cat", apps.CatPath, []string{"cat", "/data/notes.txt"}, false, 0, 11},
	{"clear", apps.ClearPath, []string{"clear"}, false, 0, 13},
	{"sqlite", apps.SqlitePath, []string{"sqlite3", "120"}, false, 0, 20},
	{"nginx", apps.NginxPath, []string{"nginx", "0"}, true, 30, 43},
	{"lighttpd", apps.LighttpdPath, []string{"lighttpd", "0"}, true, 30, 44},
	{"redis", apps.RedisPath, []string{"redis-server", "1"}, true, 30, 92},
}

// Table2 runs the offline phase for every Table 2 application and
// reports the unique syscall-site counts.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, wl := range table2Workloads {
		w, err := macroWorld()
		if err != nil {
			return nil, err
		}
		_, n, err := machine.Offline(context.Background(), w, wl.path, wl.argv, wl.requests)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", wl.name, err)
		}
		rows = append(rows, Table2Row{Name: wl.name, Sites: n, Paper: wl.paper})
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
