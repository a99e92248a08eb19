// Package k23_test holds the top-level benchmark harness: one benchmark
// per paper table/figure (see DESIGN.md's experiment index E1-E9). The
// benchmarks report the reproduced quantities as custom metrics —
// x-native overheads for Table 5 — so `go test -bench=.` regenerates the
// paper's evaluation. Table 6 is benchmarked a row at a time inside
// internal/bench (BenchmarkTable6Macro), where its rows are declared.
package k23_test

import (
	"context"
	"testing"

	"k23/internal/bench"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/pitfalls"
	"k23/internal/robinset"
	"k23/internal/zpoline"
)

// BenchmarkTable2OfflinePhase (E1): the offline profiling phase across
// the nine workloads; reports unique syscall sites for the headline app.
func BenchmarkTable2OfflinePhase(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Sites), r.Name+"-sites")
	}
}

// BenchmarkTable3PitfallMatrix (E2): the full PoC matrix over the three
// paper columns; reports the number of handled cells per interposer.
func BenchmarkTable3PitfallMatrix(b *testing.B) {
	var results []pitfalls.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = pitfalls.Matrix(context.Background(), variants.Table3Columns())
		if err != nil {
			b.Fatal(err)
		}
	}
	handled := map[string]int{}
	for _, r := range results {
		if r.Handled {
			handled[r.Interposer]++
		}
	}
	for name, n := range handled {
		b.ReportMetric(float64(n), name+"-handled-of-9")
	}
}

// BenchmarkTable5Micro (E3): the syscall-500 stress test per variant;
// reports the overhead factor relative to native.
func BenchmarkTable5Micro(b *testing.B) {
	nativeSpec, _ := variants.ByName("native")
	native, err := bench.MicroSlope(context.Background(), nativeSpec)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range bench.Table5Variants() {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, _ := variants.ByName(name)
			var slope float64
			for i := 0; i < b.N; i++ {
				slope, err = bench.MicroSlope(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(slope/native, "x-native")
			b.ReportMetric(bench.PaperTable5[name], "x-native-paper")
		})
	}
}

// BenchmarkFigure1Anatomy (E5): misidentification anatomy generation.
func BenchmarkFigure1Anatomy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.Figure1() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2OfflineFlow (E6): the offline-phase event trace.
func BenchmarkFigure2OfflineFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4OnlineFlow (E6): the online-phase event trace.
func BenchmarkFigure4OnlineFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure4(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartupClaim (E7): ls's pre-interposition startup syscalls.
func BenchmarkStartupClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ClaimStartup(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNullCheckMemory (E8): bitmap vs robin-set footprint for a
// rewritten-site set of paper-scale cardinality (92 sites, redis).
func BenchmarkNullCheckMemory(b *testing.B) {
	sites := make([]uint64, 92)
	for i := range sites {
		sites[i] = 0x5500_0000 + uint64(i)*37
	}
	b.Run("zpoline-bitmap", func(b *testing.B) {
		var bm *zpoline.Bitmap
		for i := 0; i < b.N; i++ {
			bm = zpoline.NewBitmap()
			for _, s := range sites {
				bm.Set(s)
			}
		}
		b.ReportMetric(float64(bm.ReservedBytes()), "reserved-bytes")
		b.ReportMetric(float64(bm.ResidentBytes()), "resident-bytes")
	})
	b.Run("k23-robinset", func(b *testing.B) {
		var set *robinset.Set
		for i := 0; i < b.N; i++ {
			set = robinset.New(len(sites))
			for _, s := range sites {
				set.Insert(s)
			}
		}
		b.ReportMetric(0, "reserved-bytes")
		b.ReportMetric(float64(set.MemBytes()), "resident-bytes")
	})
}

// BenchmarkAblationNullCheck (E9): isolates the per-call cost of the
// Table 4 features by differencing variant slopes.
func BenchmarkAblationNullCheck(b *testing.B) {
	measure := func(name string) float64 {
		spec, _ := variants.ByName(name)
		s, err := bench.MicroSlope(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	var zDelta, kDelta, sDelta float64
	for i := 0; i < b.N; i++ {
		zDelta = measure("zpoline-ultra") - measure("zpoline-default")
		kDelta = measure("k23-ultra") - measure("k23-default")
		sDelta = measure("k23-ultra+") - measure("k23-ultra")
	}
	b.ReportMetric(zDelta, "bitmap-check-cycles")
	b.ReportMetric(kDelta, "robinset-check-cycles")
	b.ReportMetric(sDelta, "stack-switch-cycles")
}

// BenchmarkEngine measures raw simulator stepping speed on the
// syscall-500 tight loop (Table 5's workload) and the redis-like macro
// workload (Table 6's) under each execution-engine mode: jit (decode
// cache plus superblocks), cache-only and cache-off. A cache-only/
// cache-off pair isolates the decode cache, a jit/cache-only pair the
// superblock engine. Each op builds a world and runs the workload to
// exit; steps/s is retired guest instructions over b.Elapsed(), world
// build included. internal/cpu/difftest proves the modes' guest-visible
// results identical, and `benchtab -claim decodecache` and `-claim jit`
// pin their counters.
func BenchmarkEngine(b *testing.B) {
	workloads := []struct {
		name string
		run  func(m difftest.Mode) (bench.EngineRun, error)
	}{
		{"micro-syscall500", func(m difftest.Mode) (bench.EngineRun, error) {
			return bench.MeasureEngineMicro(context.Background(), 3000, m)
		}},
		{"redis-like", func(m difftest.Mode) (bench.EngineRun, error) {
			return bench.MeasureEngineMacro(context.Background(), 200, m)
		}},
	}
	for _, w := range workloads {
		for _, m := range []difftest.Mode{difftest.ModeJIT, difftest.ModeCacheOnly, difftest.ModeCacheOff} {
			b.Run(w.name+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				var steps uint64
				for i := 0; i < b.N; i++ {
					r, err := w.run(m)
					if err != nil {
						b.Fatal(err)
					}
					steps += r.Steps
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// Sanity: the whole benchmark surface is runnable from a fresh world.
func TestBenchSurfaceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	spec, _ := variants.ByName("zpoline-default")
	if _, err := bench.MicroSlope(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	_ = interpose.Config{}
}
