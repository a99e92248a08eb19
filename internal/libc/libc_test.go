package libc_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

func TestImageIsMemoizedAndValid(t *testing.T) {
	a, b := libc.Image(), libc.Image()
	if a != b {
		t.Fatal("Image not memoized")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.InitSymbol != "libc_init" {
		t.Fatalf("init = %q", a.InitSymbol)
	}
}

func TestEveryWrapperHasOneSite(t *testing.T) {
	im := libc.Image()
	// Each wrapper label must have a matching ".<name>_syscall_site"
	// ground-truth site exactly one MOVIMM32 after it — except write,
	// whose full-delivery loop carries a register-save prologue before
	// the first mov. Retry loops notwithstanding, every wrapper still
	// contains exactly one SYSCALL instruction site.
	names := []string{"write"}
	for _, sc := range kernel.Syscalls {
		if sc.Libc != "" {
			names = append(names, sc.Libc)
		}
	}
	for _, name := range names {
		w, ok := im.SymbolOff(name)
		if !ok {
			t.Fatalf("missing wrapper %s", name)
		}
		site, ok := im.SymbolOff("." + name + "_syscall_site")
		if !ok {
			t.Fatalf("missing site label for %s", name)
		}
		if name == "write" {
			if site <= w {
				t.Fatalf("write site at +%d, want after the prologue", site-w)
			}
		} else if site != w+6 {
			t.Fatalf("%s site at +%d, want +6 (after the mov)", name, site-w)
		}
		count := 0
		for _, ts := range im.TrueSites {
			if ts == site {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("%s site in ground truth %d times, want once", name, count)
		}
	}
}

// TestImageHashPinned pins libc's bytes: every section's name, placement,
// permissions and contents, the symbol table, relocations and the
// ground-truth syscall sites. Reordering or re-encoding a wrapper moves
// every later symbol, which shifts rewrite sites, trace hashes and
// goldens downstream, so a change here must be deliberate.
func TestImageHashPinned(t *testing.T) {
	const want = 0x7d7ad76e9c5d24d5
	im := libc.Image()
	h := fnv.New64a()
	for _, s := range im.Sections {
		fmt.Fprintf(h, "section %s %#x %#x %d\n", s.Name, s.Off, s.Size, s.Perm)
		h.Write(s.Data)
	}
	for _, name := range im.SortedSymbols() {
		fmt.Fprintf(h, "symbol %s %#x\n", name, im.Symbols[name])
	}
	for _, r := range im.Relocs {
		fmt.Fprintf(h, "reloc %#x %s %d\n", r.Off, r.Symbol, r.Addend)
	}
	fmt.Fprintf(h, "sites %v entry %#x init %s\n", im.TrueSites, im.Entry, im.InitSymbol)
	if got := h.Sum64(); got != want {
		t.Errorf("libc image hash = %#x, want %#x", got, want)
	}
}

// run builds and runs a tiny program against libc helpers.
func run(t *testing.T, build func(tx *asm.SectionBuilder, d *asm.SectionBuilder)) *kernel.Process {
	t.Helper()
	w := interpose.NewWorld()
	b := asm.NewBuilder("/t/prog")
	b.Needed(libc.Path)
	d := b.Data()
	tx := b.Text()
	tx.Label("_start")
	build(tx, d)
	w.MustRegister(b.MustBuild())
	p, err := machine.Exec(context.Background(), w, interpose.Native{}, "/t/prog", []string{"prog"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMemcpyMemsetStrlen(t *testing.T) {
	p := run(t, func(tx, d *asm.SectionBuilder) {
		d.Label(".src").CString("hello world")
		d.Label(".dst").Space(32)
		// memset(dst, 'x', 4)
		tx.MovImmSym(cpu.RDI, ".dst")
		tx.MovImm32(cpu.RSI, 'x')
		tx.MovImm32(cpu.RDX, 4)
		tx.CallSym("memset")
		// memcpy(dst+4, src, 5)
		tx.MovImmSym(cpu.RDI, ".dst")
		tx.AddImm(cpu.RDI, 4)
		tx.MovImmSym(cpu.RSI, ".src")
		tx.MovImm32(cpu.RDX, 5)
		tx.CallSym("memcpy")
		// strlen(dst) -> exit code
		tx.MovImmSym(cpu.RDI, ".dst")
		tx.CallSym("strlen")
		tx.Mov(cpu.RDI, cpu.RAX)
		tx.CallSym("exit_group")
	})
	// exit code 9 = strlen("xxxxhello"): memset, memcpy and strlen all
	// behaved.
	if p.Exit.Code != 9 {
		t.Fatalf("strlen = %d, want 9", p.Exit.Code)
	}
}

func TestSyscallGeneric(t *testing.T) {
	p := run(t, func(tx, d *asm.SectionBuilder) {
		// syscall(getpid) via the generic entry point.
		tx.MovImm32(cpu.RDI, kernel.SysGetpid)
		tx.CallSym("syscall")
		tx.Mov(cpu.RDI, cpu.RAX)
		tx.CallSym("exit_group")
	})
	if p.Exit.Code != p.PID {
		t.Fatalf("exit = %+v, pid %d", p.Exit, p.PID)
	}
}
