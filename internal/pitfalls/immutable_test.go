package pitfalls

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"k23/internal/apps"
	"k23/internal/fleet"
	"k23/internal/image"
	"k23/internal/interpose/variants"
)

// imageHash hashes everything a loader, rewriter or augmenter could
// write into an image: its path, every section's header and bytes (up
// to the capacity the loader maps as shared pages, so the zero tail
// counts), symbols, relocations, needed list, entry, init symbol and
// true sites.
func imageHash(im *image.Image) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "path %s\n", im.Path)
	for _, s := range im.Sections {
		fmt.Fprintf(h, "section %s %#x %#x %d %d\n", s.Name, s.Off, s.Size, s.Perm, len(s.Data))
		h.Write(s.Data[:cap(s.Data)])
	}
	for _, name := range im.SortedSymbols() {
		fmt.Fprintf(h, "symbol %s %#x\n", name, im.Symbols[name])
	}
	for _, r := range im.Relocs {
		fmt.Fprintf(h, "reloc %#x %s %d\n", r.Off, r.Symbol, r.Addend)
	}
	fmt.Fprintf(h, "needed %q entry %#x init %s sites %v\n", im.Needed, im.Entry, im.InitSymbol, im.TrueSites)
	return h.Sum64()
}

// TestImagesImmutable: the images every world shares (the workload
// apps and their libraries, the PoCs, libc, ld.so and the vdso) hash
// the same after the full Table 3 matrix and a two-worker standard
// fleet run as before. The loader maps their section bytes as shared
// pages, so a store that reached an image instead of copying its page
// would change the hash, as would a rewrite of any symbol, relocation
// or site list.
func TestImagesImmutable(t *testing.T) {
	w := harness{}.world()
	p, err := w.L.Spawn(apps.PwdPath, []string{"pwd"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	images := map[*image.Image]uint64{}
	for _, path := range w.Reg.Paths() {
		im, _ := w.Reg.Lookup(path)
		images[im] = imageHash(im)
	}
	for _, li := range w.L.Loaded(p) { // ld.so and the vdso are not in the registry
		images[li.Image] = imageHash(li.Image)
	}
	if len(images) < 27 { // 13 apps and libraries, 11 PoCs, libc, ld.so, vdso
		t.Fatalf("collected %d images, want at least 27", len(images))
	}

	cells, err := Matrix(variants.Table3Columns())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 27 {
		t.Fatalf("the matrix ran %d cells, want 27", len(cells))
	}
	rep, err := fleet.Run(context.Background(), fleet.StandardFleet(23), fleet.Options{Workers: 2})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatal(err)
	}

	for im, want := range images {
		if got := imageHash(im); got != want {
			t.Errorf("%s: image hash %#x after the runs, %#x before", im.Path, got, want)
		}
	}
}
