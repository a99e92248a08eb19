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
	"k23/internal/machine"
	"k23/internal/obsv"
	"k23/internal/probe"
	"k23/internal/rr"
	"k23/internal/sfip"
	"k23/internal/span"
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
		// A chaos-armed recorded run with live span tracing: the span
		// JSONL passes its schema check, the Perfetto export is a
		// non-empty trace_event document, and replaying the recording
		// with -spans derives byte-identical spans (the spans observer
		// rides a side-stream and cannot perturb the recorded schedule).
		{"spans-live-replay-parity", func(t *testing.T, dir string) {
			rec, live, retro := filepath.Join(dir, "rec.jsonl"), filepath.Join(dir, "live.jsonl"), filepath.Join(dir, "retro.jsonl")
			perfetto := filepath.Join(dir, "spans.perfetto.json")
			run(t, "-record", rec, "-variant", "k23-ultra", "-chaos", "3",
				"-spans", live, "-perfetto", perfetto, "-critpath", "cat", "/data/notes.txt")
			if rep, err := span.ValidateJSONL(bytes.NewReader(read(t, live))); err != nil || !rep.Ok() {
				t.Errorf("live spans fail the schema check: %v %v", err, rep)
			}
			if !bytes.Contains(read(t, perfetto), []byte(`"traceEvents":[{`)) {
				t.Error("empty Perfetto trace")
			}
			run(t, "-replay", rec, "-spans", retro)
			if !bytes.Equal(read(t, live), read(t, retro)) {
				t.Error("replay-derived spans differ from live spans")
			}
		}},
		// A chaos-armed recorded run with a live probe program: the
		// aggregations pass the probe schema check and carry the chaos
		// emits, and replaying the recording with the same program
		// derives byte-identical output.
		{"probes-live-replay-parity", func(t *testing.T, dir string) {
			rec, live, retro := filepath.Join(dir, "rec.jsonl"), filepath.Join(dir, "live.jsonl"), filepath.Join(dir, "retro.jsonl")
			prog := filepath.Join(dir, "prog.bt")
			if err := os.WriteFile(prog, []byte("syscall:*:exit { count() by (name); hist(cycles) by (mech) }\n"+
				"phase:*:kernel { sum(cycles) }\nchaos:inject { emit() }\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			run(t, "-record", rec, "-variant", "k23-ultra", "-chaos", "7",
				"-probe-file", prog, "-probe-out", live, "cat", "/data/notes.txt")
			validate(t, probe.ValidateJSONL, live)
			if !bytes.Contains(read(t, live), []byte(`"t":"emit"`)) {
				t.Error("chaos emits missing from the probe output")
			}
			run(t, "-replay", rec, "-probe-file", prog, "-probe-out", retro)
			if !bytes.Equal(read(t, live), read(t, retro)) {
				t.Error("replay-derived probe output differs from live output")
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
			f, err := os.Open(policy)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			p, err := sfip.ReadPolicy(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := (machine.Spec{Mechanism: "k23-ultra+"}).Mech(); p.Mech != want {
				t.Errorf("learned policy mech = %q, want %q", p.Mech, want)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, t.TempDir()) })
	}
}

// TestCatExitsOnDeniedRead: cat under a policy learned from ls, in
// enforce mode, has every call denied with EPERM. Its copy loop must
// leave on the failed read, so the run makes its ten calls once each
// and ends when the denied exit_group returns into libc's trap, instead
// of retrying the read until the machine's budget runs out.
func TestCatExitsOnDeniedRead(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "ls.sfip")
	if _, code := k23(t, "-variant", "k23-ultra+", "-sfip-learn", policy, "ls", "/data"); code != 0 {
		t.Fatalf("learning run exited %d", code)
	}
	_, stderr, code := k23Stderr(t, "-variant", "k23-ultra+", "-sfip", policy, "-sfip-mode", "enforce",
		"cat", "/data/notes.txt")
	if code != 128+4 {
		t.Errorf("k23 exited %d, want %d (cat killed by SIGILL after its denied exit_group)", code, 128+4)
	}
	for _, want := range []string{"[k23-ultra+] killed by signal 4", " 10 violations, 10 denied", "] pid 2 tid 201 read at"} {
		if !bytes.Contains(stderr, []byte(want)) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
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

// TestGoldenTraceAndProfile pins the flight recorder's two renderings
// of one wrapped ring (the strace text on stderr and the -trace-json
// artifact) and a folded profile sampled every 7 ticks, a period that
// falls mid-quantum, so the samples' RIPs pin where runs are cut.
// Deliberate refreshes: go test ./cmd/k23 -run TestGoldenTraceAndProfile -update
func TestGoldenTraceAndProfile(t *testing.T) {
	dir := t.TempDir()
	trace, folded := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "ls.folded")
	_, stderr, code := k23Stderr(t, "-variant", "k23-ultra", "-ring", "64", "-trace", "-trace-json", trace, "redis-server")
	if code != 0 {
		t.Fatalf("k23 -trace exited %d", code)
	}
	stderr = bytes.ReplaceAll(stderr, []byte(dir), []byte("DIR"))
	checkGolden(t, filepath.Join("testdata", "trace", "redis-server_k23-ultra.strace"), stderr)
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "trace", "redis-server_k23-ultra.jsonl"), got)
	if _, code := k23(t, "-variant", "sud", "-profile-every", "7", "-folded", folded, "ls"); code != 0 {
		t.Fatalf("k23 -folded exited %d", code)
	}
	if got, err = os.ReadFile(folded); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "trace", "ls_sud_every7.folded"), got)
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
