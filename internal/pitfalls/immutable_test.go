package pitfalls

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"k23/internal/apps"
	"k23/internal/cpu"
	"k23/internal/fleet"
	"k23/internal/image"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
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

// pinnedDecodeStats holds each Table 3 cell's summed decode-cache
// counters (hits, misses, invalidations), keyed "PoC/mechanism".
var pinnedDecodeStats = map[string]cpu.DecodeCacheStats{
	"P1a/zpoline-ultra": {Hits: 1970, Misses: 763, Invalidations: 35},
	"P1a/lazypoline":    {Hits: 637, Misses: 248, Invalidations: 0},
	"P1a/k23-ultra+":    {Hits: 3886, Misses: 1478, Invalidations: 6},
	"P1b/zpoline-ultra": {Hits: 2888, Misses: 663, Invalidations: 35},
	"P1b/lazypoline":    {Hits: 410, Misses: 159, Invalidations: 7},
	"P1b/k23-ultra+":    {Hits: 768, Misses: 770, Invalidations: 0},
	"P2a/zpoline-ultra": {Hits: 3368, Misses: 675, Invalidations: 35},
	"P2a/lazypoline":    {Hits: 1512, Misses: 691, Invalidations: 11},
	"P2a/k23-ultra+":    {Hits: 913, Misses: 592, Invalidations: 0},
	"P2b/zpoline-ultra": {Hits: 1527, Misses: 655, Invalidations: 35},
	"P2b/lazypoline":    {Hits: 366, Misses: 140, Invalidations: 0},
	"P2b/k23-ultra+":    {Hits: 727, Misses: 580, Invalidations: 0},
	"P3a/zpoline-ultra": {Hits: 2020, Misses: 647, Invalidations: 35},
	"P3a/lazypoline":    {Hits: 390, Misses: 141, Invalidations: 3},
	"P3a/k23-ultra+":    {Hits: 1033, Misses: 754, Invalidations: 3},
	"P3b/zpoline-ultra": {Hits: 1518, Misses: 656, Invalidations: 35},
	"P3b/lazypoline":    {Hits: 388, Misses: 152, Invalidations: 9},
	"P3b/k23-ultra+":    {Hits: 709, Misses: 578, Invalidations: 0},
	"P4a/zpoline-ultra": {Hits: 2220, Misses: 657, Invalidations: 35},
	"P4a/lazypoline":    {Hits: 390, Misses: 675, Invalidations: 3},
	"P4a/k23-ultra+":    {Hits: 1219, Misses: 796, Invalidations: 3},
	"P4b/zpoline-ultra": {Hits: 3966, Misses: 649, Invalidations: 35},
	"P4b/lazypoline":    {Hits: 1886, Misses: 635, Invalidations: 3},
	"P4b/k23-ultra+":    {Hits: 3105, Misses: 758, Invalidations: 3},
	"P5/zpoline-ultra":  {Hits: 1536291, Misses: 154882, Invalidations: 3223},
	"P5/lazypoline":     {Hits: 412, Misses: 169, Invalidations: 10},
	"P5/k23-ultra+":     {Hits: 1343065, Misses: 157835, Invalidations: 742},
}

// TestImagesImmutable: the images every world shares (the workload
// apps and their libraries, the PoCs, libc, ld.so and the vdso) hash
// the same after the full Table 3 matrix and a two-worker standard
// fleet run as before. The loader maps their section bytes as shared
// pages, so a store that reached an image instead of copying its page
// would change the hash, as would a rewrite of any symbol, relocation
// or site list.
//
// Its DecodeStatsPinned subtest rides on the same matrix run: for each
// cell, the decode-cache counters of every core of every kernel the
// PoC built, summed, are pinned. The decode cache is an optimisation
// with no guest-visible effect, so a change to its bookkeeping must
// leave every hit, miss and invalidation where it was.
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

	var kernels []*kernel.Kernel
	capture := func(k *kernel.Kernel) { kernels = append(kernels, k) }
	stats := map[string]cpu.DecodeCacheStats{}
	for _, poc := range All() {
		for _, spec := range variants.Table3Columns() {
			kernels = kernels[:0]
			if _, _, err := poc.Run(spec, capture); err != nil {
				t.Fatalf("%s under %s: %v", poc.ID, spec.Name, err)
			}
			var sum cpu.DecodeCacheStats
			for _, k := range kernels {
				sum.Add(k.DecodeCacheStats())
			}
			stats[poc.ID+"/"+spec.Name] = sum
		}
	}
	t.Run("DecodeStatsPinned", func(t *testing.T) {
		if len(stats) != 27 || len(pinnedDecodeStats) != 27 {
			t.Fatalf("the matrix ran %d cells, %d pinned, want 27", len(stats), len(pinnedDecodeStats))
		}
		for cell, want := range pinnedDecodeStats {
			if got := stats[cell]; got != want {
				t.Errorf("%s: decode stats %+v, pinned %+v", cell, got, want)
			}
		}
	})
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
