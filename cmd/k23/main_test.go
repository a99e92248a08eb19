package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"k23/internal/audit"
	"k23/internal/obsv"
	"k23/internal/rr"
	"k23/internal/sfip"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestMain lets the test binary stand in for the k23 command: with
// K23_AS_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("K23_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// k23 runs the command with args and returns its stdout and exit code.
func k23(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	stdout, _, code := k23Stderr(t, args...)
	return stdout, code
}

// k23Stderr is k23 that also returns the command's stderr.
func k23Stderr(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "K23_AS_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("k23 %v: %v", args, err)
	}
	if code != 0 {
		t.Logf("k23 %v stderr:\n%s", args, errOut.Bytes())
	}
	return out.Bytes(), errOut.Bytes(), code
}

// TestServerRunsLiveRecordedAndReplayed: a server under K23 is driven by
// its injected connection on a plain run too, offline phase included,
// and a plain run, a recorded
// run and the replay of that recording are one execution: each exits 0
// with identical stdout.
func TestServerRunsLiveRecordedAndReplayed(t *testing.T) {
	rec := filepath.Join(t.TempDir(), "rec.jsonl")
	for _, app := range [][]string{{"redis-server"}, {"cat", "/data/notes.txt"}} {
		plain, code := k23(t, append([]string{"-variant", "k23-ultra+"}, app...)...)
		if code != 0 {
			t.Fatalf("%s: plain run exited %d", app[0], code)
		}
		recorded, code := k23(t, append([]string{"-variant", "k23-ultra+", "-record", rec}, app...)...)
		if code != 0 {
			t.Fatalf("%s: -record run exited %d", app[0], code)
		}
		replayed, code := k23(t, "-replay", rec)
		if code != 0 {
			t.Fatalf("%s: -replay run exited %d", app[0], code)
		}
		if !bytes.Equal(plain, recorded) || !bytes.Equal(recorded, replayed) {
			t.Errorf("%s: stdout differs:\n plain    %q\n recorded %q\n replayed %q", app[0], plain, recorded, replayed)
		}
	}
}

// TestObservabilityPipelines runs the trace and metrics pipelines end
// to end through the command: each row produces artifacts with k23 and
// checks them the way a user would.
func TestObservabilityPipelines(t *testing.T) {
	run := func(t *testing.T, args ...string) {
		t.Helper()
		if _, code := k23(t, args...); code != 0 {
			t.Fatalf("k23 %v exited %d", args, code)
		}
	}
	read := func(t *testing.T, path string) []byte {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// validate runs the schema check obsvcheck runs for the artifact.
	validate := func(t *testing.T, check func(io.Reader) (int, error), path string) {
		t.Helper()
		if _, err := check(bytes.NewReader(read(t, path))); err != nil {
			t.Errorf("%s fails the schema check: %v", filepath.Base(path), err)
		}
	}
	// sfipRun runs k23 under k23-ultra+ and checks its stderr names want.
	sfipRun := func(t *testing.T, want string, args ...string) {
		t.Helper()
		_, stderr, code := k23Stderr(t, append([]string{"-variant", "k23-ultra+"}, args...)...)
		if code != 0 {
			t.Fatalf("k23 %v exited %d", args, code)
		}
		if !bytes.Contains(stderr, []byte(want)) {
			t.Errorf("k23 %v: stderr lacks %q:\n%s", args, want, stderr)
		}
	}
	for _, row := range []struct {
		name  string
		check func(t *testing.T, dir string)
	}{
		// A traced run's JSONL passes the schema check (every record
		// parses, carries its kind's fields, keeps seq/clock monotonic),
		// and its metrics name the syscalls ls makes.
		{"trace-schema", func(t *testing.T, dir string) {
			trace, metrics := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.json")
			run(t, "-variant", "k23-ultra", "-trace-json", trace, "-metrics", metrics, "ls")
			if _, err := obsv.ValidateJSONL(bytes.NewReader(read(t, trace))); err != nil {
				t.Errorf("trace fails the schema check: %v", err)
			}
			if !bytes.Contains(read(t, metrics), []byte(`"name": "openat"`)) {
				t.Error("metrics missing ls syscalls")
			}
		}},
		// The metrics are a built-in probe program, so replaying a
		// recording derives byte-identical metrics JSON.
		{"replay-metrics-parity", func(t *testing.T, dir string) {
			rec, live, replay := filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "live.json"), filepath.Join(dir, "replay.json")
			run(t, "-variant", "k23-ultra", "-record", rec, "-metrics", live, "ls")
			run(t, "-replay", rec, "-metrics", replay)
			if !bytes.Equal(read(t, live), read(t, replay)) {
				t.Error("replay-derived metrics differ from live metrics")
			}
		}},
		// A redis-like recording passes the rr schema check, and its
		// replay is bit-identical to it (every checkpoint and the final
		// trace/event/VFS hashes). The seeks exercise time travel end to
		// end: one target during launch (the startup-escape window) and
		// one past the last checkpoint.
		{"rr-record-replay-seek", func(t *testing.T, dir string) {
			rec := filepath.Join(dir, "rr.jsonl")
			run(t, "-record", rec, "-variant", "k23-ultra+", "-checkpoint-every", "30000", "redis-server")
			if _, err := rr.ReadJSONL(bytes.NewReader(read(t, rec))); err != nil {
				t.Errorf("recording fails the schema check: %v", err)
			}
			_, stderr, code := k23Stderr(t, "-replay", rec, "-until", "8,1200")
			if code != 0 {
				t.Fatalf("replay exited %d", code)
			}
			for _, want := range []string{"replay bit-identical", "seek seq=1200: restored checkpoint"} {
				if !bytes.Contains(stderr, []byte(want)) {
					t.Errorf("replay output lacks %q:\n%s", want, stderr)
				}
			}
		}},
		// Every coverage app under each mechanism family with the
		// shadow-map auditor on: each report passes the audit schema
		// check.
		{"audit-report-schema", func(t *testing.T, dir string) {
			for _, variant := range []string{"zpoline-ultra", "lazypoline", "sud", "ptrace", "k23-ultra+"} {
				for _, app := range []string{"pwd", "ls", "cat"} {
					report := filepath.Join(dir, variant+"-"+app+".jsonl")
					run(t, "-variant", variant, "-audit-json", report, app)
					validate(t, audit.ValidateJSONL, report)
				}
			}
		}},
		// SFIP end to end: a policy learned from an audit-classified
		// training run, self-enforced by the fully covering mechanism
		// without a violation; a different application under it trips
		// it (log mode, so the run completes and the ledger records the
		// violations); the policy and both reports pass their schema
		// checks.
		{"sfip-learn-enforce-trip", func(t *testing.T, dir string) {
			policy, self, cross := filepath.Join(dir, "ls.sfip"), filepath.Join(dir, "ls.sfip.json"), filepath.Join(dir, "cat.sfip.json")
			sfipRun(t, "learned policy", "-sfip-learn", policy, "ls", "/data")
			sfipRun(t, " 0 violations, 0 denied", "-sfip", policy, "-sfip-mode", "enforce", "-sfip-json", self, "ls", "/data")
			sfipRun(t, "unknown-", "-sfip", policy, "-sfip-mode", "log", "-sfip-json", cross, "cat", "/data/notes.txt")
			validate(t, sfip.ValidatePolicyJSONL, policy)
			validate(t, sfip.ValidateJSONL, self)
			validate(t, sfip.ValidateJSONL, cross)
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, t.TempDir()) })
	}
}

// TestGoldenMetrics pins the bytes of `k23 -metrics` (JSON) and `-prom`
// (Prometheus text, with the span-phase histograms appended because
// -spans is on) for three apps under four mechanisms. Every number is
// simulated, so any drift is a real change to what the metrics report.
// Deliberate refreshes: go test ./cmd/k23 -run TestGoldenMetrics -update
func TestGoldenMetrics(t *testing.T) {
	for _, app := range []string{"ls", "cat", "redis-server"} {
		for _, variant := range []string{"native", "zpoline-default", "sud", "k23-ultra+"} {
			t.Run(app+"/"+variant, func(t *testing.T) {
				dir := t.TempDir()
				metrics, prom := filepath.Join(dir, "m.json"), filepath.Join(dir, "m.prom")
				if _, code := k23(t, "-variant", variant, "-metrics", metrics, "-prom", prom,
					"-spans", filepath.Join(dir, "spans.jsonl"), app); code != 0 {
					t.Fatalf("k23 exited %d", code)
				}
				for _, out := range [][2]string{{metrics, ".json"}, {prom, ".prom"}} {
					got, err := os.ReadFile(out[0])
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, filepath.Join("testdata", "metrics", app+"_"+variant+out[1]), got)
				}
			})
		}
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run `go test ./cmd/k23 -run TestGoldenMetrics -update` to create): %v", path, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			t.Errorf("%s line %d drifted:\n got:  %q\n want: %q", path, i+1, g, w)
			return
		}
	}
}
