package asm

import (
	"testing"

	"k23/internal/cpu"
	"k23/internal/mem"
)

func TestBuildSimpleImage(t *testing.T) {
	b := NewBuilder("/t/prog")
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RAX, 1)
	tx.Label("mid")
	tx.Ret()
	d := b.Data()
	d.Label("buf").Space(16)

	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if im.Entry != im.Symbols["_start"] {
		t.Fatalf("entry = %#x", im.Entry)
	}
	if im.Symbols["mid"] != 6 {
		t.Fatalf("mid = %#x, want 6 (after the 6-byte mov)", im.Symbols["mid"])
	}
	text, ok := im.Section(".text")
	if !ok || text.Perm != mem.PermRX {
		t.Fatalf("text = %+v", text)
	}
	data, ok := im.Section(".data")
	if !ok || data.Perm != mem.PermRW || data.Off%mem.PageSize != 0 {
		t.Fatalf("data = %+v", data)
	}
	if im.Symbols["buf"] != data.Off {
		t.Fatalf("buf = %#x", im.Symbols["buf"])
	}
}

func TestBranchResolution(t *testing.T) {
	b := NewBuilder("/t/br")
	tx := b.Text()
	tx.Label("_start")
	tx.Jmp("target") // 5 bytes
	tx.Nop()
	tx.Label("target")
	tx.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := im.Section(".text")
	inst, err := cpu.Decode(sec.Data)
	if err != nil {
		t.Fatal(err)
	}
	// jmp target: next = 5, target = 6 -> rel = +1.
	if inst.Op != cpu.OpJmp || inst.Imm != 1 {
		t.Fatalf("jmp imm = %d", inst.Imm)
	}
}

func TestBackwardBranch(t *testing.T) {
	b := NewBuilder("/t/loop")
	tx := b.Text()
	tx.Label("_start")
	tx.Label(".top")
	tx.Nop()
	tx.Jnz(".top")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := im.Section(".text")
	inst, err := cpu.Decode(sec.Data[1:])
	if err != nil {
		t.Fatal(err)
	}
	// jnz at 1, next = 6, target = 0 -> rel = -6.
	if inst.Imm != -6 {
		t.Fatalf("jnz imm = %d", inst.Imm)
	}
}

func TestUndefinedBranchTarget(t *testing.T) {
	b := NewBuilder("/t/bad")
	tx := b.Text()
	tx.Label("_start")
	tx.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted undefined branch target")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate label did not panic")
		}
	}()
	b := NewBuilder("/t/dup")
	tx := b.Text()
	tx.Label("x")
	tx.Label("x")
}

func TestRelocsRecorded(t *testing.T) {
	b := NewBuilder("/t/rel")
	tx := b.Text()
	tx.Label("_start")
	tx.MovImmSym(cpu.RDI, "some_symbol")
	tx.CallSym("external_fn")
	d := b.Data()
	d.Label("ptr").AddrOf("another")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// MovImmSym (1) + CallSym's MovImmSym (1) + AddrOf (1) = 3.
	if len(im.Relocs) != 3 {
		t.Fatalf("relocs = %d: %+v", len(im.Relocs), im.Relocs)
	}
	if im.Relocs[0].Symbol != "some_symbol" || im.Relocs[0].Off != 2 {
		t.Fatalf("reloc[0] = %+v", im.Relocs[0])
	}
}

func TestTrueSitesRecorded(t *testing.T) {
	b := NewBuilder("/t/sites")
	tx := b.Text()
	tx.Label("_start")
	tx.Nop()
	tx.Syscall()       // offset 1
	tx.Sysenter()      // offset 3
	tx.Raw(0x0F, 0x05) // raw bytes: NOT a ground-truth site
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.TrueSites) != 2 || im.TrueSites[0] != 1 || im.TrueSites[1] != 3 {
		t.Fatalf("TrueSites = %v", im.TrueSites)
	}
}

func TestAlignAndData(t *testing.T) {
	b := NewBuilder("/t/align")
	d := b.Data()
	d.Raw(1)
	d.Align(8)
	d.Label("v").U64(0xdeadbeef)
	d.CString("hi")
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if im.Symbols["v"]%8 != 0 {
		t.Fatalf("v not aligned: %#x", im.Symbols["v"])
	}
	sec, _ := im.Section(".data")
	off := im.Symbols["v"] - sec.Off
	if sec.Data[off] != 0xef || sec.Data[off+3] != 0xde {
		t.Fatalf("u64 bytes: % x", sec.Data[off:off+8])
	}
	if string(sec.Data[off+8:off+10]) != "hi" || sec.Data[off+10] != 0 {
		t.Fatal("cstring mangled")
	}
}

func TestTextAlignPadsWithNops(t *testing.T) {
	b := NewBuilder("/t/pad")
	tx := b.Text()
	tx.Ret()
	tx.Align(4)
	if tx.Off() != 4 {
		t.Fatalf("off = %d", tx.Off())
	}
	im, _ := b.Build()
	sec, _ := im.Section(".text")
	for i := 1; i < 4; i++ {
		if sec.Data[i] != cpu.ByteNop {
			t.Fatalf("pad byte %d = %#x", i, sec.Data[i])
		}
	}
}

func TestIsExported(t *testing.T) {
	if IsExported(".local") || !IsExported("global") || IsExported("") {
		t.Fatal("IsExported convention broken")
	}
}

func TestInitHostAndNeeded(t *testing.T) {
	called := false
	b := NewBuilder("/t/lib").
		Needed("/usr/lib/libc.so.6").
		Init("myinit").
		InitHost(func(h any, base uint64) error { called = true; return nil })
	tx := b.Text()
	tx.Label("myinit")
	tx.Ret()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Needed) != 1 || im.InitSymbol != "myinit" || im.InitHost == nil {
		t.Fatalf("image meta: %+v", im)
	}
	_ = im.InitHost(nil, 0)
	if !called {
		t.Fatal("InitHost closure lost")
	}
}
