package interpose_test

import (
	"context"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

func TestMechanismString(t *testing.T) {
	cases := map[interpose.Mechanism]string{
		interpose.MechNone:    "none",
		interpose.MechRewrite: "rewrite",
		interpose.MechSUD:     "sud",
		interpose.MechPtrace:  "ptrace",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestStatsTotal(t *testing.T) {
	s := interpose.Stats{Rewritten: 3, SUD: 2, Ptraced: 1}
	if s.Total() != 6 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestNativeLauncher(t *testing.T) {
	w := interpose.NewWorld()
	b := asm.NewBuilder("/t/p")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 5)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())

	var n interpose.Native
	if n.Name() != "native" {
		t.Fatal("name")
	}
	p, err := machine.Exec(context.Background(), w, n, "/t/p", []string{"p"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Exit.Code != 5 {
		t.Fatalf("exit = %+v", p.Exit)
	}
	if n.Stats(p).Total() != 0 {
		t.Fatal("native interposed something")
	}
}

func TestVariantsRegistry(t *testing.T) {
	specs := variants.Specs()
	wantNames := []string{
		"native", "zpoline-default", "zpoline-ultra", "lazypoline",
		"k23-default", "k23-ultra", "k23-ultra+",
		"sud", "sud-no-interposition", "ptrace",
	}
	if len(specs) != len(wantNames) {
		t.Fatalf("got %d specs", len(specs))
	}
	for i, w := range wantNames {
		if specs[i].Name != w {
			t.Errorf("spec[%d] = %s, want %s", i, specs[i].Name, w)
		}
	}
	for _, name := range wantNames {
		spec, ok := variants.ByName(name)
		if !ok {
			t.Errorf("ByName(%s) missing", name)
			continue
		}
		l := spec.New(interpose.Config{}, "")
		if l.Name() != name {
			t.Errorf("launcher for %s reports %s", name, l.Name())
		}
	}
	if _, ok := variants.ByName("bogus"); ok {
		t.Fatal("ByName(bogus) succeeded")
	}
}

// Table 1/Table 4 consistency: the variant registry encodes the paper's
// component and feature inventory.
func TestVariantsMatchTable4(t *testing.T) {
	cases := map[string]string{
		"zpoline-default": "",
		"zpoline-ultra":   "NULL Execution Check",
		"k23-default":     "",
		"k23-ultra":       "NULL Execution Check",
		"k23-ultra+":      "NULL Execution Check & Stack Switch",
	}
	for name, features := range cases {
		spec, ok := variants.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if spec.ExtraFeatures != features {
			t.Errorf("%s features = %q, want %q", name, spec.ExtraFeatures, features)
		}
	}
	for _, name := range []string{"k23-default", "k23-ultra", "k23-ultra+"} {
		spec, _ := variants.ByName(name)
		if !spec.NeedsOfflineLog {
			t.Errorf("%s must need an offline log", name)
		}
	}
	cols := variants.Table3Columns()
	if len(cols) != 3 || cols[0].Name != "zpoline-ultra" || cols[1].Name != "lazypoline" || cols[2].Name != "k23-ultra+" {
		t.Fatalf("Table3Columns = %v", cols)
	}
}

// EmulateClone must give the child the requested stack, a zero RAX, and
// the resume RIP, and run the setup hook.
func TestEmulateClone(t *testing.T) {
	w := interpose.NewWorld()
	b := asm.NewBuilder("/t/sleep")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	w.MustRegister(b.MustBuild())
	p, err := w.L.Spawn("/t/sleep", []string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	main := p.MainThread()

	setup := 0
	ret := interpose.EmulateClone(w.K, main, [6]uint64{0, 0x7ffc00000000, 0, 0, 0, 0},
		0xCAFE, func(_ *kernel.Kernel, _, child *kernel.Thread) { setup++ })
	if _, isErr := kernel.IsErr(ret); isErr {
		t.Fatalf("clone ret = %#x", ret)
	}
	child := p.ThreadByTID(int(ret))
	if child == nil {
		t.Fatal("child not found")
	}
	if child.Core.Ctx.RIP != 0xCAFE {
		t.Fatalf("child rip = %#x", child.Core.Ctx.RIP)
	}
	if child.Core.Ctx.R[cpu.RSP] != 0x7ffc00000000 {
		t.Fatalf("child rsp = %#x", child.Core.Ctx.R[cpu.RSP])
	}
	if child.Core.Ctx.R[cpu.RAX] != 0 {
		t.Fatalf("child rax = %d", child.Core.Ctx.R[cpu.RAX])
	}
	if setup != 1 {
		t.Fatalf("setup ran %d times", setup)
	}
}

func TestAbortError(t *testing.T) {
	err := interpose.Abort("reason")
	if err == nil || err.Error() != "interposer abort: reason" {
		t.Fatalf("err = %v", err)
	}
}
