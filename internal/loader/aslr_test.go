package loader_test

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

// newASLRWorld builds a world with randomized load bases.
func newASLRWorld(t *testing.T, seed uint64) *interpose.World {
	t.Helper()
	w := interpose.NewWorld()
	w.L.ASLRSeed = seed
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		t.Fatal(err)
	}
	return w
}

func libcBase(t *testing.T, w *interpose.World, p *kernel.Process) uint64 {
	t.Helper()
	for _, li := range w.L.Loaded(p) {
		if li.Image.Path == libc.Path {
			return li.Base
		}
	}
	t.Fatal("libc not loaded")
	return 0
}

// TestASLRRandomizesBases: two processes in the same world get different
// load bases; region-relative symbol offsets stay identical.
func TestASLRRandomizesBases(t *testing.T) {
	w := newASLRWorld(t, 42)
	p1, err := w.L.Spawn(apps.PwdPath, []string{"pwd"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.L.Spawn(apps.PwdPath, []string{"pwd"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := libcBase(t, w, p1), libcBase(t, w, p2)
	if b1 == b2 {
		t.Fatalf("ASLR produced identical libc bases %#x", b1)
	}
	// Offsets within the region are base-independent by construction;
	// verify the mapped bytes agree at a known symbol offset.
	off, _ := libc.Image().SymbolOff("getpid")
	x1, err := p1.AS.KLoad(b1+off, 8)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := p2.AS.KLoad(b2+off, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("wrapper bytes differ under ASLR: % x vs % x", x1, x2)
		}
	}
	if err := w.K.RunUntilExit(p1, 100_000_000); err != nil {
		t.Fatal(err)
	}
	if p1.Exit.Code != 0 {
		t.Fatalf("pwd under ASLR: %+v", p1.Exit)
	}
}

// TestK23SurvivesASLR is the point of the (region, offset) log format
// (paper §5.1): the offline phase runs in one ASLR'd process, the online
// phase in another with different bases, and the selective rewrite still
// lands on the right instructions.
func TestK23SurvivesASLR(t *testing.T) {
	w := newASLRWorld(t, 20260706)

	off := &core.Offline{LogDir: "/var/k23/logs"}
	run, err := off.Start(w, apps.LsPath, []string{"ls", "/data"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(run.Process(), machine.DefaultMaxInsts); err != nil {
		t.Fatal(err)
	}
	logged, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	offlineBase := libcBase(t, w, run.Process())

	var rewriteHits int
	k23 := core.New(interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			if c.Mechanism == interpose.MechRewrite {
				rewriteHits++
			}
			return 0, false
		},
		NullExecCheck: true,
	}, off.LogPath("ls"))
	p, err := machine.Exec(context.Background(), w, k23, apps.LsPath, []string{"ls", "/data"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	onlineBase := libcBase(t, w, p)

	if offlineBase == onlineBase {
		t.Fatalf("offline and online libc bases identical (%#x); ASLR scenario broken", offlineBase)
	}
	if p.Exit.Code != 0 || p.Exit.Signal != 0 {
		t.Fatalf("ls under K23+ASLR: %+v", p.Exit)
	}
	st := k23.Stats(p)
	if st.Sites != logged {
		t.Fatalf("rewrote %d of %d logged sites despite ASLR", st.Sites, logged)
	}
	if rewriteHits == 0 {
		t.Fatal("no calls took the rewritten path under ASLR")
	}
	if st.Corruptions != 0 {
		t.Fatalf("corruptions = %d", st.Corruptions)
	}
}

// TestDlmopenPrivateNamespace: dlmopen-style loading keeps symbols out of
// the global namespace (paper §5.3's recursion defence).
func TestDlmopenPrivateNamespace(t *testing.T) {
	w := interpose.NewWorld()

	plug := buildNamed(t, "/usr/lib/priv.so", "private_fn")
	w.Reg.MustAdd(plug)
	host := buildDlHost(t, "/bin/dlmhost", "/usr/lib/priv.so", "private_fn", true)
	w.Reg.MustAdd(host)

	p, err := machine.Exec(context.Background(), w, interpose.Native{}, "/bin/dlmhost", []string{"dlmhost"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// dlmopen succeeded (exit 0 = base != 0) but dlsym must NOT find the
	// symbol globally: the host exits 0 only when dlsym returned NULL.
	if p.Exit.Code != 0 {
		t.Fatalf("exit = %+v; private symbol leaked into the global namespace", p.Exit)
	}
	// Control: plain dlopen DOES export it.
	w2 := interpose.NewWorld()
	w2.Reg.MustAdd(buildNamed(t, "/usr/lib/priv.so", "private_fn"))
	w2.Reg.MustAdd(buildDlHost(t, "/bin/dlmhost", "/usr/lib/priv.so", "private_fn", false))
	p2, err := machine.Exec(context.Background(), w2, interpose.Native{}, "/bin/dlmhost", []string{"dlmhost"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Exit.Code != 1 {
		t.Fatalf("control exit = %+v; dlopen should export the symbol", p2.Exit)
	}
}

func buildNamed(t *testing.T, path, sym string) *image.Image {
	t.Helper()
	b := asm.NewBuilder(path)
	tx := b.Text()
	tx.Label(sym)
	tx.Ret()
	return b.MustBuild()
}

// buildDlHost loads a library via dlopen or dlmopen, then dlsym-probes
// the symbol. Exit 0 = symbol NOT visible, 1 = visible, 2 = load failed.
func buildDlHost(t *testing.T, path, lib, sym string, private bool) *image.Image {
	t.Helper()
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".lib").CString(lib)
	d.Label(".sym").CString(sym)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, ".lib")
	if private {
		tx.CallSym("dlmopen")
	} else {
		tx.CallSym("dlopen")
	}
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".loadfail")
	tx.MovImmSym(cpu.RDI, ".sym")
	tx.CallSym("dlsym")
	tx.Test(cpu.RAX, cpu.RAX)
	tx.Jz(".hidden")
	tx.MovImm32(cpu.RDI, 1)
	tx.CallSym("exit_group")
	tx.Label(".hidden")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	tx.Label(".loadfail")
	tx.MovImm32(cpu.RDI, 2)
	tx.CallSym("exit_group")
	return b.MustBuild()
}
