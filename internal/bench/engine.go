package bench

import (
	"fmt"

	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// EngineRun is one run of a workload under one execution-engine mode:
// the decode-cache and superblock-engine counters the run left. Unlike
// the Table 5 and 6 rows, which are by construction identical in every
// mode, these counters show what the decode cache and the superblock
// engine did. Every field is deterministic and golden-testable; the
// simulator's host speed in each mode is BenchmarkEngine's to measure.
type EngineRun struct {
	Workload string
	Mode     difftest.Mode
	// Steps is the number of guest instructions retired.
	Steps uint64
	// Cache and JIT aggregate the decode-cache and superblock counters
	// over every core.
	Cache cpu.DecodeCacheStats
	JIT   cpu.JITStats
}

// MeasureEngineMicro runs the syscall-500 stress loop (the Table 5
// workload) natively for n iterations under engine mode m.
func MeasureEngineMicro(n int, m difftest.Mode) (EngineRun, error) {
	return measureEngine("micro-syscall500", micro, n, m)
}

// MeasureEngineMacro runs the redis-like single-I/O-thread server (the
// Table 6 redis row) natively under engine mode m, driven with requests
// injected requests.
func MeasureEngineMacro(requests int, m difftest.Mode) (EngineRun, error) {
	return measureEngine("redis-like", redis, requests, m)
}

// measureEngine runs wl natively at size n under engine mode m. The
// mode's options are applied at the attach point: they set fields the
// kernel reads when it creates a core, and a native run creates none
// before it.
func measureEngine(name string, wl workload, n int, m difftest.Mode) (EngineRun, error) {
	native, _ := variants.ByName("native")
	var k *kernel.Kernel
	_, _, err := measure(native, wl, func(w *interpose.World) {
		k = w.K
		for _, o := range m.Options() {
			o(k)
		}
	}, n)
	if err != nil {
		return EngineRun{}, err
	}
	return EngineRun{
		Workload: name,
		Mode:     m,
		Steps:    machine.Insts(k),
		Cache:    k.DecodeCacheStats(),
		JIT:      k.JITStats(),
	}, nil
}

// FormatDecodeCache renders the decode-cache counters of cache-only
// runs, the golden file for `benchtab -claim decodecache`.
func FormatDecodeCache(runs []EngineRun) string {
	out := fmt.Sprintf("%-18s %-12s %-9s %s\n", "Workload", "steps", "hit-rate", "hits/misses/inval")
	for _, r := range runs {
		out += fmt.Sprintf("%-18s %-12d %-9s %d/%d/%d\n",
			r.Workload, r.Steps, fmt.Sprintf("%.1f%%", r.Cache.HitRate()*100),
			r.Cache.Hits, r.Cache.Misses, r.Cache.Invalidations)
	}
	return out
}

// FormatJITEngagement renders the superblock-engine counters of
// jit-mode runs, the golden file for `benchtab -claim jit`.
func FormatJITEngagement(runs []EngineRun) string {
	out := fmt.Sprintf("%-18s %-12s %-8s %-9s %-12s %-9s %-6s %-7s %s\n",
		"Workload", "steps", "blocks", "entries", "block-insts", "coverage", "bails", "selfwr", "evict")
	for _, r := range runs {
		out += fmt.Sprintf("%-18s %-12d %-8d %-9d %-12d %-9s %-6d %-7d %d\n",
			r.Workload, r.Steps, r.JIT.Blocks, r.JIT.Entries,
			r.JIT.BlockInsts,
			fmt.Sprintf("%.1f%%", r.JIT.Coverage(r.Steps)*100),
			r.JIT.Bails, r.JIT.SelfWrites, r.JIT.Invalidations)
	}
	return out
}
