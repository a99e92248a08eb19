package core_test

import (
	"context"
	"testing"

	"k23/internal/apps"
	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

// TestAugmentStaticWidensCoverage: a short dynamic profile of cat misses
// wrappers it never called; static augmentation adds them, and the
// online phase then serves those calls via the fast rewritten path
// instead of the SUD fallback.
func TestAugmentStaticWidensCoverage(t *testing.T) {
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		t.Fatal(err)
	}

	// Dynamic profile: cat only.
	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, apps.CatPath, []string{"cat", "/data/notes.txt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	dynamic, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Static augmentation over libc: every wrapper site joins the log.
	added, err := core.AugmentStatic(w, off, "cat", []string{libc.Path})
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("augmentation added nothing; cat cannot have exercised all of libc")
	}
	if !w.K.FS.IsImmutable("/var/k23/logs") {
		t.Fatal("log dir left unsealed")
	}

	// No misidentified entries: every augmented offset must hold genuine
	// syscall bytes (K23's online validation would refuse them anyway;
	// here we assert the static pass itself is clean).
	data, _ := w.K.FS.ReadFile(off.LogPath("cat"))
	entries, err := core.ParseLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != dynamic+added {
		t.Fatalf("log has %d entries, want %d+%d", len(entries), dynamic, added)
	}
	truth := map[uint64]bool{}
	for _, off := range libc.Image().TrueSites {
		truth[off] = true
	}
	for _, e := range entries {
		if e.Region == libc.Path && !truth[e.Offset] {
			t.Fatalf("augmented entry %v is not a genuine site", e)
		}
	}

	// Online: a program using a wrapper cat never called (getuid) now
	// takes the rewritten path.
	var uidMech interpose.Mechanism
	k23 := core.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetuid && c.Mechanism != interpose.MechPtrace {
				uidMech = c.Mechanism
			}
			return 0, false
		},
	}, off.LogPath("cat"))

	// Reuse cat's log for a getuid-calling program: register one.
	w.Reg.MustAdd(buildUIDProg())
	_, err = machine.Exec(context.Background(), w, k23, "/bin/uid", []string{"uid"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if uidMech != interpose.MechRewrite {
		t.Fatalf("getuid mechanism = %v, want rewrite via augmented log", uidMech)
	}
}

// buildUIDProg: a tiny program calling getuid once.
func buildUIDProg() *image.Image {
	b := asm.NewBuilder("/bin/uid")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.CallSym("getuid")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	return b.MustBuild()
}
