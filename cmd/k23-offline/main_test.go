package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// TestMain lets the test binary stand in for the k23-offline command:
// with K23_AS_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("K23_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestGoldenLogs pins the stdout of k23-offline — the Figure 3 log and
// its header and trailer lines — for a coreutil under each libLogger
// engine, with static augmentation, and for a server driven by its
// injected connection. Every byte is simulated, so any drift is a real
// change to what the offline phase logs.
// Deliberate refreshes: go test ./cmd/k23-offline -update
func TestGoldenLogs(t *testing.T) {
	for _, row := range []struct {
		golden string
		args   []string
	}{
		{"ls.golden", []string{"ls"}},
		{"ls_seccomp.golden", []string{"-engine", "seccomp", "ls"}},
		{"cat_static.golden", []string{"-static", "cat"}},
		{"nginx.golden", []string{"nginx"}},
	} {
		t.Run(row.golden, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], row.args...)
			cmd.Env = append(os.Environ(), "K23_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("k23-offline %v: %v\nstderr:\n%s", row.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", row.golden)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden %s (run `go test ./cmd/k23-offline -update` to create): %v", path, err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("k23-offline %v stdout drifted from %s:\n got:\n%s\n want:\n%s", row.args, path, stdout.Bytes(), want)
			}
		})
	}
}

// TestUsage: without a program the command exits 2 with a usage line
// that names every flag.
func TestUsage(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "K23_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("k23-offline with no program: %v, want exit status 2\nstderr:\n%s", err, stderr.Bytes())
	}
	usage, _, _ := strings.Cut(stderr.String(), "\n")
	if !strings.HasPrefix(usage, "usage: k23-offline ") {
		t.Fatalf("first stderr line %q is not the usage line", usage)
	}
	for _, name := range []string{"-dir", "-requests", "-engine sud|seccomp", "-static"} {
		if !strings.Contains(usage, name) {
			t.Errorf("usage line %q does not name %s", usage, name)
		}
	}
}
