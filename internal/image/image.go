// Package image defines the program image format of the simulated
// platform — a deliberately simplified ELF analogue with sections,
// symbols, load-time relocations and dependency records. Images are
// produced by the internal/asm assembler and mapped by internal/loader.
package image

import (
	"fmt"
	"sort"

	"k23/internal/mem"
)

// Section is a contiguous chunk of an image with one permission.
type Section struct {
	Name string
	// Off is the section's offset within the image. Loaders map the
	// section at base+Off. Sections are page-aligned.
	Off  uint64
	Size uint64 // mapped size; >= len(Data) (the excess is zero-fill)
	// Data is the section's initial bytes. Its capacity runs, zeroed,
	// to the end of its last page: the loader maps those pages as
	// shared copy-on-write pages, so nothing writes Data after Build.
	Data []byte
	Perm mem.Perm
}

// Reloc is a load-time absolute relocation: the 8 little-endian bytes at
// image offset Off receive the resolved virtual address of Symbol (plus
// Addend). This is how the platform models R_X86_64_64-style relocations
// and GOT entries.
type Reloc struct {
	Off    uint64
	Symbol string
	Addend int64
}

// Image is a loadable binary: an executable or shared library. An image
// is immutable once built: one image may be registered in many
// registries and mapped into many processes at once, on any goroutine.
type Image struct {
	// Path is the canonical filesystem path, e.g. "/usr/bin/ls" or
	// "/lib/libc.so.6". Region names in /proc/<pid>/maps use it.
	Path string
	// Interp, when false, marks a static binary the loader maps without
	// running dynamic-linker startup work.
	Sections []Section
	// Symbols maps defined symbol names to image offsets. Symbols are
	// exported to the global (or dlmopen-private) namespace.
	Symbols map[string]uint64
	// Relocs are applied after all dependencies are mapped.
	Relocs []Reloc
	// Needed lists dependency image paths (like DT_NEEDED).
	Needed []string
	// Entry is the image offset of the entry point (executables).
	Entry uint64
	// InitSymbol, if non-empty, names a function the loader calls after
	// relocation (like DT_INIT). Interposer libraries use it.
	InitSymbol string
	// InitHost, if non-nil, is invoked by the loader in host (Go) space
	// after the image is mapped and relocated. It models the native
	// constructor logic of an injected library. The argument is an
	// opaque handle supplied by the loader.
	InitHost func(h any, base uint64) error
	// TrueSites lists the image offsets of genuine SYSCALL/SYSENTER
	// instructions, recorded by the assembler. This is ground truth for
	// pitfall diagnostics (misidentification/corruption accounting);
	// interposer *behaviour* never consults it.
	TrueSites []uint64
}

// Size returns the total mapped footprint of the image in bytes.
func (im *Image) Size() uint64 {
	var end uint64
	for _, s := range im.Sections {
		if e := s.Off + s.Size; e > end {
			end = e
		}
	}
	return end
}

// Section returns the named section.
func (im *Image) Section(name string) (*Section, bool) {
	for i := range im.Sections {
		if im.Sections[i].Name == name {
			return &im.Sections[i], true
		}
	}
	return nil, false
}

// SymbolOff returns the image offset of a defined symbol.
func (im *Image) SymbolOff(name string) (uint64, bool) {
	off, ok := im.Symbols[name]
	return off, ok
}

// SortedSymbols returns symbol names sorted by offset, for stable dumps.
func (im *Image) SortedSymbols() []string {
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if im.Symbols[names[i]] != im.Symbols[names[j]] {
			return im.Symbols[names[i]] < im.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Validate checks structural invariants: aligned non-overlapping sections,
// symbols and relocations inside the image.
func (im *Image) Validate() error {
	if im.Path == "" {
		return fmt.Errorf("image: empty path")
	}
	type span struct{ lo, hi uint64 }
	var spans []span
	for _, s := range im.Sections {
		if s.Off%mem.PageSize != 0 {
			return fmt.Errorf("image %s: section %s offset %#x not page-aligned", im.Path, s.Name, s.Off)
		}
		if uint64(len(s.Data)) > s.Size {
			return fmt.Errorf("image %s: section %s data exceeds size", im.Path, s.Name)
		}
		spans = append(spans, span{s.Off, s.Off + s.Size})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("image %s: overlapping sections", im.Path)
		}
	}
	total := im.Size()
	for name, off := range im.Symbols {
		if off > total {
			return fmt.Errorf("image %s: symbol %s offset %#x out of range", im.Path, name, off)
		}
	}
	for _, r := range im.Relocs {
		if r.Off+8 > total {
			return fmt.Errorf("image %s: relocation at %#x out of range", im.Path, r.Off)
		}
	}
	if im.Entry > total {
		return fmt.Errorf("image %s: entry %#x out of range", im.Path, im.Entry)
	}
	return nil
}

// Registry maps image paths to images. It stands in for the filesystem's
// view of binaries (the simulated VFS stores no ELF bytes; execve and the
// loader consult the registry).
type Registry struct {
	images map[string]*Image
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]*Image)}
}

// Add registers an image under its path after validating it.
func (r *Registry) Add(im *Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	r.images[im.Path] = im
	return nil
}

// MustAdd registers an image and panics on invalid input (assembly-time
// programming errors).
func (r *Registry) MustAdd(im *Image) {
	if err := r.Add(im); err != nil {
		panic(err)
	}
}

// Lookup returns the image registered at path.
func (r *Registry) Lookup(path string) (*Image, bool) {
	im, ok := r.images[path]
	return im, ok
}

// Paths returns all registered paths, sorted.
func (r *Registry) Paths() []string {
	out := make([]string, 0, len(r.images))
	for p := range r.images {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
