package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

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
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "K23_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("k23 %v: %v", args, err)
	}
	if code != 0 {
		t.Logf("k23 %v stderr:\n%s", args, stderr.Bytes())
	}
	return stdout.Bytes(), code
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
