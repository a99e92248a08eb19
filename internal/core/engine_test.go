package core_test

import (
	"context"
	"testing"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/machine"
)

// TestOfflineEnginesAgree: the seccomp-backed libLogger must produce the
// same site profile as the SUD-backed one (§5.1: "Any exhaustive system
// call interposition mechanism may be used during the offline phase").
func TestOfflineEnginesAgree(t *testing.T) {
	profile := func(engine string) []core.LogEntry {
		w := interpose.NewWorld()
		apps.RegisterAll(w.Reg)
		if err := apps.SetupFS(w.K.FS); err != nil {
			t.Fatal(err)
		}
		off := &core.Offline{LogDir: "/var/k23/logs", Engine: engine}
		run, err := off.Start(w, apps.LsPath, []string{"ls", "/data"}, nil)
		if err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if _, err := run.Finish(); err != nil {
			t.Fatal(err)
		}
		return run.Entries()
	}
	sudSites := profile("sud")
	secSites := profile("seccomp")
	if len(sudSites) == 0 {
		t.Fatal("sud engine logged nothing")
	}
	if len(sudSites) != len(secSites) {
		t.Fatalf("engines disagree: sud %d sites, seccomp %d sites", len(sudSites), len(secSites))
	}
	for i := range sudSites {
		if sudSites[i] != secSites[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, sudSites[i], secSites[i])
		}
	}
}

// TestOfflineUnknownEngine rejects bad configuration loudly.
func TestOfflineUnknownEngine(t *testing.T) {
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	off := &core.Offline{LogDir: "/l", Engine: "bpf"}
	if _, err := off.Start(w, apps.PwdPath, []string{"pwd"}, nil); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestSeccompEngineFeedsK23: an end-to-end run where the offline log
// produced via seccomp drives K23's online rewriting.
func TestSeccompEngineFeedsK23(t *testing.T) {
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		t.Fatal(err)
	}
	off := &core.Offline{LogDir: "/var/k23/logs", Engine: "seccomp"}
	run, err := off.Start(w, apps.CatPath, []string{"cat", "/data/notes.txt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	n, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("seccomp engine logged nothing")
	}

	k23 := core.New(interpose.Config{}, off.LogPath("cat"))
	p, err := machine.Exec(context.Background(), w, k23, apps.CatPath, []string{"cat", "/data/notes.txt"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	st := k23.Stats(p)
	if st.Sites != n {
		t.Fatalf("rewrote %d of %d seccomp-logged sites", st.Sites, n)
	}
	if st.Rewritten == 0 {
		t.Fatal("no rewritten-path calls")
	}
}
