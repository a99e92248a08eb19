package disasm

import (
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/mem"
)

// textOf builds an image from the section callback and returns its .text
// bytes plus the offsets of labels.
func textOf(t *testing.T, build func(tx *asm.SectionBuilder)) ([]byte, map[string]uint64) {
	t.Helper()
	b := asm.NewBuilder("/tmp/t")
	tx := b.Text()
	build(tx)
	im := b.MustBuild()
	sec, _ := im.Section(".text")
	return sec.Data, im.Symbols
}

func TestLinearSweepFindsPlainSites(t *testing.T) {
	code, syms := textOf(t, func(tx *asm.SectionBuilder) {
		tx.Label("_start")
		tx.MovImm32(cpu.RAX, 39)
		tx.Label("site1")
		tx.Syscall()
		tx.MovImm32(cpu.RAX, 60)
		tx.Label("site2")
		tx.Sysenter()
		tx.Ret()
	})
	res := LinearSweep(code, 0)
	if len(res.Sites) != 2 {
		t.Fatalf("found %d sites, want 2: %+v", len(res.Sites), res.Sites)
	}
	if res.Sites[0].Addr != syms["site1"] || res.Sites[0].Kind != KindSyscall {
		t.Fatalf("site1 = %+v", res.Sites[0])
	}
	if res.Sites[1].Addr != syms["site2"] || res.Sites[1].Kind != KindSysenter {
		t.Fatalf("site2 = %+v", res.Sites[1])
	}
	if res.Resyncs != 0 {
		t.Fatalf("unexpected resyncs on clean code: %d", res.Resyncs)
	}
}

func TestLinearSweepMisidentifiesImmediateBytes(t *testing.T) {
	// P3a raw material: a 64-bit immediate containing 0F 05. Linear
	// sweep decodes the MOVIMM correctly here, so no false positive —
	// but after embedded data desyncs the sweep, the immediate bytes
	// can be decoded as a SYSCALL.
	code, syms := textOf(t, func(tx *asm.SectionBuilder) {
		tx.Label("_start")
		// Embedded data: a jump-table-like blob that is not valid code.
		// 0xAB is undecodable, forcing byte-at-a-time resync; the 0F 05
		// inside the data then looks like a SYSCALL instruction.
		tx.Label("data")
		tx.Raw(0xAB, 0x0F, 0x05, 0xAB, 0xAB)
		tx.Label("real")
		tx.MovImm32(cpu.RAX, 1)
		tx.Syscall()
		tx.Ret()
	})
	res := LinearSweep(code, 0)
	var addrs []uint64
	for _, s := range res.Sites {
		addrs = append(addrs, s.Addr)
	}
	// The data's fake site at offset 1 is misidentified.
	found := map[uint64]bool{}
	for _, a := range addrs {
		found[a] = true
	}
	if !found[syms["data"]+1] {
		t.Fatalf("linear sweep did not misidentify embedded data: %v", addrs)
	}
	if res.Resyncs == 0 {
		t.Fatal("expected resyncs over embedded data")
	}
}

func TestLinearSweepOverlooksDesyncedSite(t *testing.T) {
	// P2a: data whose decode consumes the following real instruction.
	// 0xB8 (MOVIMM) at the end of a data blob swallows the next 9 bytes
	// — including a real SYSCALL — as its immediate.
	code, syms := textOf(t, func(tx *asm.SectionBuilder) {
		tx.Label("_start")
		tx.Label("data")
		tx.Raw(0xB8, 0x00) // looks like MOVIMM reg=0, imm = next 8 bytes
		tx.Label("real_site")
		tx.Syscall() // 0F 05 swallowed into the bogus immediate
		tx.Raw(cpu.ByteNop, cpu.ByteNop, cpu.ByteNop, cpu.ByteNop, cpu.ByteNop, cpu.ByteNop)
		tx.Ret()
	})
	res := LinearSweep(code, 0)
	for _, s := range res.Sites {
		if s.Addr == syms["real_site"] {
			t.Fatalf("sweep unexpectedly found the swallowed site; layout broken")
		}
	}
	// Ground truth says there IS a site there.
	byteSites := FindByteSites(code, 0)
	ok := false
	for _, s := range byteSites {
		if s.Addr == syms["real_site"] {
			ok = true
		}
	}
	if !ok {
		t.Fatal("byte scan lost the ground-truth site; test layout broken")
	}
}

func TestFindByteSitesOverapproximates(t *testing.T) {
	code := []byte{
		0x0F, 0x05, // real-looking syscall
		0x90,
		0x0F, 0x34, // sysenter bytes
		0xB8, 0x00, 0x0F, 0x05, 0, 0, 0, 0, 0, 0, // imm contains 0F 05
	}
	sites := FindByteSites(code, 0x1000)
	if len(sites) != 3 {
		t.Fatalf("found %d byte sites, want 3: %+v", len(sites), sites)
	}
	if sites[0].Addr != 0x1000 || sites[1].Addr != 0x1003 || sites[2].Addr != 0x1007 {
		t.Fatalf("sites = %+v", sites)
	}
	if sites[1].Kind != KindSysenter {
		t.Fatalf("second site kind = %v", sites[1].Kind)
	}
}

func TestDiff(t *testing.T) {
	found := []Site{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	truth := []uint64{2, 3, 4}
	correct, mis, overlooked := Diff(found, truth)
	if len(correct) != 2 || len(mis) != 1 || len(overlooked) != 1 {
		t.Fatalf("diff = %d/%d/%d", len(correct), len(mis), len(overlooked))
	}
	if mis[0].Addr != 1 || overlooked[0] != 4 {
		t.Fatalf("mis=%+v overlooked=%v", mis, overlooked)
	}
}

func TestSweepTerminatesOnArbitraryBytes(t *testing.T) {
	// Fuzz-ish: the sweep must always terminate and stay in bounds.
	blob := make([]byte, 4096)
	seed := uint64(12345)
	for i := range blob {
		seed = seed*6364136223846793005 + 1442695040888963407
		blob[i] = byte(seed >> 33)
	}
	res := LinearSweep(blob, 0)
	if res.Decoded == 0 && res.Resyncs == 0 {
		t.Fatal("sweep did nothing")
	}
	for _, s := range res.Sites {
		if s.Addr >= uint64(len(blob)) {
			t.Fatalf("site out of bounds: %#x", s.Addr)
		}
	}
	_ = mem.PageSize
}

func TestSymbolSweepAvoidsDataDesync(t *testing.T) {
	// Layout: fn1 (with a real site), inter-function data blob containing
	// SYSCALL bytes, fn2 (with a real site). A plain linear sweep trips
	// over the blob; the symbol-anchored sweep does not.
	code, syms := textOf(t, func(tx *asm.SectionBuilder) {
		tx.Label("fn1")
		tx.MovImm32(cpu.RAX, 1)
		tx.Syscall()
		tx.Ret()
		tx.Label("table")
		tx.Raw(0xAB, 0x0F, 0x05, 0xAB)
		tx.Label("fn2")
		tx.MovImm32(cpu.RAX, 2)
		tx.Syscall()
		tx.Ret()
	})
	symOffs := []uint64{syms["fn1"], syms["fn2"]}
	sites := SymbolSweep(code, 0, symOffs)
	if len(sites) != 2 {
		t.Fatalf("symbol sweep found %d sites: %+v", len(sites), sites)
	}
	if sites[0].Addr != syms["fn1"]+6 || sites[1].Addr != syms["fn2"]+6 {
		t.Fatalf("sites = %+v", sites)
	}
	// Contrast: the plain sweep misidentifies the blob.
	lin := LinearSweep(code, 0)
	mis := 0
	for _, s := range lin.Sites {
		if s.Addr != syms["fn1"]+6 && s.Addr != syms["fn2"]+6 {
			mis++
		}
	}
	if mis == 0 {
		t.Fatal("linear sweep unexpectedly clean; contrast scenario broken")
	}
}

func TestSymbolSweepNoSymbols(t *testing.T) {
	if got := SymbolSweep([]byte{0x0F, 0x05}, 0, nil); got != nil {
		t.Fatalf("sweep with no symbols = %+v", got)
	}
}

func TestSymbolSweepOutOfRangeSymbol(t *testing.T) {
	code := []byte{0x0F, 0x05, 0xC3}
	sites := SymbolSweep(code, 0x1000, []uint64{0, 999})
	if len(sites) != 1 || sites[0].Addr != 0x1000 {
		t.Fatalf("sites = %+v", sites)
	}
}

// TestLinearSweepAllocs: resynchronizing over undecodable bytes allocates
// nothing, because a decode error is a value and not a heap object.
func TestLinearSweepAllocs(t *testing.T) {
	code := make([]byte, 4096) // 0x00 is not an opcode
	var res Result
	allocs := testing.AllocsPerRun(10, func() { res = LinearSweep(code, 0x1000) })
	if res.Resyncs != len(code) || res.Decoded != 0 {
		t.Fatalf("sweep resynced %d and decoded %d of %d bytes, want all resynced",
			res.Resyncs, res.Decoded, len(code))
	}
	if allocs != 0 {
		t.Fatalf("LinearSweep over %d undecodable bytes: %.0f allocations, want 0", len(code), allocs)
	}
}
