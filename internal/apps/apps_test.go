package apps_test

import (
	"context"
	"fmt"
	"testing"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// newAppWorld builds a world with all workloads registered.
func newAppWorld(t *testing.T) *interpose.World {
	t.Helper()
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		t.Fatal(err)
	}
	return w
}

// driveServer waits for the server to listen, then injects one keepalive
// connection with n requests.
func driveServer(t *testing.T, w *interpose.World, p *kernel.Process, n int) {
	t.Helper()
	req := make([]byte, apps.RequestSize)
	for i := range req {
		req[i] = byte('A' + i%26)
	}
	port := apps.BasePort + p.PID
	for i := 0; i < 2000; i++ {
		w.K.Run(10_000)
		if err := w.K.InjectConn(port, req, n, nil); err == nil {
			return
		}
	}
	t.Fatalf("server on port %d never listened", port)
}

// offlineSites runs the offline phase for an app and returns the unique
// site count.
func offlineSites(t *testing.T, path string, argv []string, server bool, requests int) int {
	t.Helper()
	w := newAppWorld(t)
	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, path, argv, nil)
	if err != nil {
		t.Fatalf("offline start %s: %v", path, err)
	}
	if server {
		driveServer(t, w, run.Process(), requests)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatalf("offline run %s: %v (stderr %q)", path, err, run.Process().Stderr)
	}
	n, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTable2SiteCounts reproduces Table 2: the number of unique
// syscall/sysenter instructions logged during the offline phase.
func TestTable2SiteCounts(t *testing.T) {
	cases := []struct {
		name     string
		path     string
		argv     []string
		server   bool
		requests int
		want     int
	}{
		{"pwd", apps.PwdPath, []string{"pwd"}, false, 0, 7},
		{"touch", apps.TouchPath, []string{"touch", "/data/new.txt"}, false, 0, 9},
		{"ls", apps.LsPath, []string{"ls", "/data"}, false, 0, 10},
		{"cat", apps.CatPath, []string{"cat", "/data/notes.txt"}, false, 0, 11},
		{"clear", apps.ClearPath, []string{"clear"}, false, 0, 13},
		{"sqlite", apps.SqlitePath, []string{"sqlite3"}, false, 0, 20},
		{"nginx", apps.NginxPath, []string{"nginx", "0"}, true, 30, 43},
		{"lighttpd", apps.LighttpdPath, []string{"lighttpd", "0"}, true, 30, 44},
		{"redis", apps.RedisPath, []string{"redis-server", "1"}, true, 30, 92},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := offlineSites(t, tc.path, tc.argv, tc.server, tc.requests)
			if got != tc.want {
				t.Errorf("%s: %d unique sites, want %d (Table 2)", tc.name, got, tc.want)
			}
		})
	}
}

func TestCoreutilsRunNatively(t *testing.T) {
	cases := []struct {
		path string
		argv []string
	}{
		{apps.PwdPath, []string{"pwd"}},
		{apps.TouchPath, []string{"touch", "/data/new.txt"}},
		{apps.LsPath, []string{"ls", "/data"}},
		{apps.CatPath, []string{"cat", "/data/notes.txt"}},
		{apps.ClearPath, []string{"clear"}},
	}
	for _, tc := range cases {
		t.Run(tc.argv[0], func(t *testing.T) {
			w := newAppWorld(t)
			p, err := machine.Exec(context.Background(), w, interpose.Native{}, tc.path, tc.argv, 0, machine.DefaultMaxInsts)
			if err != nil {
				t.Fatal(err)
			}
			if p.Exit.Code != 0 || p.Exit.Signal != 0 {
				t.Fatalf("exit = %+v", p.Exit)
			}
		})
	}
}

func TestCatCopiesFile(t *testing.T) {
	w := newAppWorld(t)
	p, err := machine.Exec(context.Background(), w, interpose.Native{}, apps.CatPath, []string{"cat", "/data/notes.txt"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := w.K.FS.ReadFile("/data/notes.txt")
	if string(p.Stdout) != string(want) {
		t.Fatalf("cat output %q, want %q", p.Stdout, want)
	}
}

func TestTouchCreatesFile(t *testing.T) {
	w := newAppWorld(t)
	_, err := machine.Exec(context.Background(), w, interpose.Native{}, apps.TouchPath, []string{"touch", "/data/created.txt"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !w.K.FS.Exists("/data/created.txt") {
		t.Fatal("touch did not create the file")
	}
}

func TestHTTPServerServesRequests(t *testing.T) {
	for _, mode := range []string{"0", "4"} {
		t.Run("body"+mode, func(t *testing.T) {
			w := newAppWorld(t)
			p, err := w.L.Spawn(apps.NginxPath, []string{"nginx", mode}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var respSizes []int
			req := make([]byte, apps.RequestSize)
			port := apps.BasePort + p.PID
			for i := 0; i < 1000; i++ {
				w.K.Run(10_000)
				if err := w.K.InjectConn(port, req, 5, func(r []byte) {
					respSizes = append(respSizes, len(r))
				}); err == nil {
					break
				}
			}
			if err := w.K.RunUntilExit(p, machine.DefaultMaxInsts); err != nil {
				t.Fatal(err)
			}
			if p.Exit.Code != 5 {
				t.Fatalf("exit = %+v, want 5 served", p.Exit)
			}
			// The 4 KB configuration sends header+body chunks.
			var total int
			for _, n := range respSizes {
				total += n
			}
			want := 5 * apps.Resp0K
			if mode == "4" {
				want = 5 * apps.Resp4K
			}
			if total != want {
				t.Fatalf("responses = %v (total %d), want total %d", respSizes, total, want)
			}
			_, completed := w.K.ListenerStats(port)
			if completed != 5 {
				t.Fatalf("listener completed = %d", completed)
			}
		})
	}
}

func TestRedisModes(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		w := newAppWorld(t)
		p, err := w.L.Spawn(apps.RedisPath, []string{"redis-server", "1"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		req := make([]byte, apps.RequestSize)
		port := apps.BasePort + p.PID
		for i := 0; i < 1000; i++ {
			w.K.Run(10_000)
			if err := w.K.InjectConn(port, req, 7, nil); err == nil {
				break
			}
		}
		if err := w.K.RunUntilExit(p, machine.DefaultMaxInsts); err != nil {
			t.Fatal(err)
		}
		if p.Exit.Code != 7 {
			t.Fatalf("exit = %+v", p.Exit)
		}
	})
	t.Run("main", func(t *testing.T) {
		w := newAppWorld(t)
		p, err := machine.Exec(context.Background(), w, interpose.Native{}, apps.RedisPath, []string{"redis-server", "main"}, 0, machine.DefaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if p.Exit.Code != 0 {
			t.Fatalf("exit = %+v", p.Exit)
		}
	})
}

func TestSqliteWritesWAL(t *testing.T) {
	w := newAppWorld(t)
	p, err := machine.Exec(context.Background(), w, interpose.Native{}, apps.SqlitePath, []string{"sqlite3"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	wal, err := w.K.FS.ReadFile("/var/db/speedtest1.db-wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != apps.SqliteOps*64 {
		t.Fatalf("WAL size = %d, want %d", len(wal), apps.SqliteOps*64)
	}
}

// Smoke print of actual counts to aid calibration when banks change.
func TestSiteCountBreakdownSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration aid")
	}
	got := offlineSites(t, apps.PwdPath, []string{"pwd"}, false, 0)
	_ = fmt.Sprintf("%d", got)
}
