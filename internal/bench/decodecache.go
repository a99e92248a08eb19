package bench

import (
	"context"
	"fmt"
	"time"

	"k23/internal/apps"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/machine"
)

// DecodeCacheRun is one wall-clock measurement of raw simulator speed
// with the decoded-instruction cache in a given mode. Unlike the Table 5
// and 6 rows — which measure simulated guest cycles and are by
// construction identical in both cache modes — this measures how fast the
// simulator itself steps, which is what the cache exists to improve.
type DecodeCacheRun struct {
	Workload string
	CacheOff bool
	// Steps is the number of guest instructions retired.
	Steps uint64
	// Elapsed is host wall-clock time.
	Elapsed time.Duration
	// Stats aggregates the decode cache counters over every core.
	Stats cpu.DecodeCacheStats
}

// StepsPerSec returns retired guest instructions per host second.
func (r DecodeCacheRun) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// MeasureDecodeCacheMicro runs the syscall-500 stress loop (the Table 5
// workload) natively for n iterations and measures simulator stepping
// speed.
func MeasureDecodeCacheMicro(n int, cacheOff bool) (DecodeCacheRun, error) {
	w := MicroWorld()
	w.K.DecodeCacheOff = cacheOff
	// Isolate the decode-cache layer: with the superblock JIT on, hot
	// code bypasses the cache entirely and the hit-rate numbers stop
	// describing it (bench/jit.go measures the JIT layer).
	w.K.JITOff = true
	start := time.Now()
	p, err := interpose.Native{}.Launch(w, MicroPath, []string{"micro", fmt.Sprintf("%d", n)}, nil)
	if err != nil {
		return DecodeCacheRun{}, err
	}
	if err := w.K.RunUntilExit(p, 2_000_000_000); err != nil {
		return DecodeCacheRun{}, err
	}
	elapsed := time.Since(start)
	return finishDecodeCacheRun(w, "micro-syscall500", cacheOff, elapsed), nil
}

// MeasureDecodeCacheMacro runs the redis-like single-I/O-thread server
// (the Table 6 redis row) natively, drives it with injected requests, and
// measures simulator stepping speed.
func MeasureDecodeCacheMacro(requests int, cacheOff bool) (DecodeCacheRun, error) {
	w, err := macroWorld()
	if err != nil {
		return DecodeCacheRun{}, err
	}
	w.K.DecodeCacheOff = cacheOff
	w.K.JITOff = true // isolate the decode-cache layer (see Micro)
	start := time.Now()
	p, err := interpose.Native{}.Launch(w, apps.RedisPath, []string{"redis-server", "1"}, nil)
	if err != nil {
		return DecodeCacheRun{}, err
	}
	if err := machine.Listen(context.Background(), w.K, p, make([]byte, apps.RequestSize), requests); err != nil {
		return DecodeCacheRun{}, err
	}
	if err := w.K.RunUntilExit(p, 3_000_000_000); err != nil {
		return DecodeCacheRun{}, err
	}
	elapsed := time.Since(start)
	return finishDecodeCacheRun(w, "redis-like", cacheOff, elapsed), nil
}

func finishDecodeCacheRun(w *interpose.World, name string, cacheOff bool, elapsed time.Duration) DecodeCacheRun {
	return DecodeCacheRun{
		Workload: name,
		CacheOff: cacheOff,
		Elapsed:  elapsed,
		Stats:    w.K.DecodeCacheStats(),
		Steps:    machine.Insts(w.K),
	}
}

// FormatDecodeCache renders cache-on/cache-off measurement pairs with
// the speedup factor, for cmd/benchtab and EXPERIMENTS.md.
func FormatDecodeCache(pairs [][2]DecodeCacheRun) string {
	out := fmt.Sprintf("%-18s %-14s %-14s %-9s %-9s %s\n",
		"Workload", "cached", "uncached", "speedup", "hit-rate", "hits/misses/inval")
	for _, pr := range pairs {
		on, off := pr[0], pr[1]
		speedup := 0.0
		if off.StepsPerSec() > 0 {
			speedup = on.StepsPerSec() / off.StepsPerSec()
		}
		out += fmt.Sprintf("%-18s %-14s %-14s %-9s %-9s %d/%d/%d\n",
			on.Workload,
			fmt.Sprintf("%.2fM st/s", on.StepsPerSec()/1e6),
			fmt.Sprintf("%.2fM st/s", off.StepsPerSec()/1e6),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f%%", on.Stats.HitRate()*100),
			on.Stats.Hits, on.Stats.Misses, on.Stats.Invalidations)
	}
	return out
}
