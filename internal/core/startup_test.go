package core_test

import (
	"context"
	"testing"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/machine"
)

// TestStartupSyscallCount reproduces the §6.1 claim: even a simple
// utility like ls issues over 100 system calls during startup, before any
// LD_PRELOAD interposition library initializes — all of which only the
// ptracer phase can interpose.
func TestStartupSyscallCount(t *testing.T) {
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		t.Fatal(err)
	}
	k23 := core.New(interpose.Config{}, "")
	p, err := machine.Exec(context.Background(), w, k23, apps.LsPath, []string{"ls", "/data"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("ls exit = %+v", p.Exit)
	}
	n := k23.StartupSyscalls(p)
	if n <= 100 {
		t.Fatalf("ls issued %d startup syscalls before libK23 initialized; paper reports over 100", n)
	}
	t.Logf("ls startup syscalls before interposition library load: %d", n)
}
