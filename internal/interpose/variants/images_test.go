package variants_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/sud"
)

// TestInterposerImagesPinned pins every interposer library image byte
// for byte: sections and their data, symbols, relocations, the init
// symbol and the ground-truth syscall sites. A refactor of how the
// libraries are assembled must leave each hash unchanged.
func TestInterposerImagesPinned(t *testing.T) {
	want := map[string]uint64{
		"zpoline-default":      0x11e4c9048043b854,
		"zpoline-ultra":        0x11e4c9048043b854,
		"lazypoline":           0x0ce20d5c7dff020b,
		"k23-default":          0x172928a95534a153,
		"k23-ultra":            0x172928a95534a153,
		"k23-ultra+":           0xded317c19eedc252,
		"sud":                  0x56d7cda3c140d5ac,
		"sud-no-interposition": 0x56d7cda3c140d5ac,
		"seccomp-trap":         0xd448d160773a7af7,
	}
	launchers := map[string]interpose.Launcher{"seccomp-trap": sud.NewSeccompTrap(interpose.Config{})}
	for _, s := range variants.Specs() {
		launchers[s.Name] = s.New(interpose.Config{}, "")
	}
	pinned := 0
	for name, l := range launchers {
		lib, ok := l.(interface{ LibraryPath() string })
		if !ok {
			continue // native and ptrace inject no library
		}
		pinned++
		w := interpose.NewWorld()
		w.MustRegister(getpidProg().MustBuild())
		if _, err := l.Launch(w, "/bin/getpid2", []string{"getpid2"}, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		im, ok := w.Reg.Lookup(lib.LibraryPath())
		if !ok {
			t.Fatalf("%s: %s not registered by Launch", name, lib.LibraryPath())
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "path %s needed %v\n", im.Path, im.Needed)
		for _, s := range im.Sections {
			fmt.Fprintf(h, "section %s %#x %#x %d\n", s.Name, s.Off, s.Size, s.Perm)
			h.Write(s.Data)
		}
		for _, sym := range im.SortedSymbols() {
			fmt.Fprintf(h, "symbol %s %#x\n", sym, im.Symbols[sym])
		}
		for _, r := range im.Relocs {
			fmt.Fprintf(h, "reloc %#x %s 0\n", r.Off, r.Symbol)
		}
		fmt.Fprintf(h, "sites %v entry %#x init %s\n", im.TrueSites, im.Entry, im.InitSymbol)
		if got := h.Sum64(); got != want[name] {
			t.Errorf("%s: image hash = %#x, want %#x", name, got, want[name])
		}
	}
	if pinned != len(want) {
		t.Errorf("hashed %d library images, want %d", pinned, len(want))
	}
}
