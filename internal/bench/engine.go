package bench

import (
	"fmt"
	"strconv"
	"time"

	"k23/internal/apps"
	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/machine"
)

// EngineRun is one wall-clock measurement of raw simulator speed under
// one execution-engine mode. Unlike the Table 5 and 6 rows — which
// measure simulated guest cycles and are by construction identical in
// every mode — this measures how fast the simulator itself steps, which
// is what the decode cache and the superblock engine exist to improve.
// A cache-only/cache-off pair isolates the decode cache, a
// jit/cache-only pair the superblock engine. Elapsed is host-dependent;
// Steps and the counters are deterministic and golden-testable.
type EngineRun struct {
	Workload string
	Mode     difftest.Mode
	// Steps is the number of guest instructions retired.
	Steps uint64
	// Elapsed is host wall-clock time.
	Elapsed time.Duration
	// Cache and JIT aggregate the decode-cache and superblock counters
	// over every core.
	Cache cpu.DecodeCacheStats
	JIT   cpu.JITStats
}

// StepsPerSec returns retired guest instructions per host second.
func (r EngineRun) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// MeasureEngineMicro runs the syscall-500 stress loop (the Table 5
// workload) natively for n iterations under engine mode m.
func MeasureEngineMicro(n int, m difftest.Mode) (EngineRun, error) {
	return measureEngine(MicroWorld(m.Options()...), m, "micro-syscall500",
		MicroPath, []string{"micro", strconv.Itoa(n)}, 0)
}

// MeasureEngineMacro runs the redis-like single-I/O-thread server (the
// Table 6 redis row) natively under engine mode m, driven with requests
// injected requests — the paper-shape macro workload the ≥2x superblock
// speedup claim is made on.
func MeasureEngineMacro(requests int, m difftest.Mode) (EngineRun, error) {
	w, err := macroWorld(m.Options()...)
	if err != nil {
		return EngineRun{}, err
	}
	return measureEngine(w, m, "redis-like", apps.RedisPath, []string{"redis-server", "1"}, requests)
}

func measureEngine(w *interpose.World, m difftest.Mode, name, path string, argv []string, requests int) (EngineRun, error) {
	start := time.Now()
	if _, err := runToExit(w, interpose.Native{}, path, argv, requests); err != nil {
		return EngineRun{}, err
	}
	return EngineRun{
		Workload: name,
		Mode:     m,
		Elapsed:  time.Since(start),
		Steps:    machine.Insts(w.K),
		Cache:    w.K.DecodeCacheStats(),
		JIT:      w.K.JITStats(),
	}, nil
}

// FormatDecodeCache renders cache-only/cache-off measurement pairs with
// the speedup factor, for cmd/benchtab and EXPERIMENTS.md.
func FormatDecodeCache(pairs [][2]EngineRun) string {
	out := fmt.Sprintf("%-18s %-14s %-14s %-9s %-9s %s\n",
		"Workload", "cached", "uncached", "speedup", "hit-rate", "hits/misses/inval")
	for _, pr := range pairs {
		on := pr[0]
		out += fmt.Sprintf("%-18s %-14s %-14s %-9s %-9s %d/%d/%d\n",
			on.Workload, stepRate(on), stepRate(pr[1]), speedup(pr),
			fmt.Sprintf("%.1f%%", on.Cache.HitRate()*100),
			on.Cache.Hits, on.Cache.Misses, on.Cache.Invalidations)
	}
	return out
}

// FormatJIT renders jit/cache-only measurement pairs with the speedup
// factor, for cmd/benchtab and EXPERIMENTS.md E18. Wall-clock derived
// columns are host-dependent and must not be golden-tested.
func FormatJIT(pairs [][2]EngineRun) string {
	out := fmt.Sprintf("%-18s %-14s %-14s %-9s %s\n",
		"Workload", "jit", "interp", "speedup", "coverage")
	for _, pr := range pairs {
		on := pr[0]
		out += fmt.Sprintf("%-18s %-14s %-14s %-9s %s\n",
			on.Workload, stepRate(on), stepRate(pr[1]), speedup(pr),
			fmt.Sprintf("%.1f%%", on.JIT.Coverage(on.Steps)*100))
	}
	return out
}

// stepRate renders a run's stepping speed.
func stepRate(r EngineRun) string { return fmt.Sprintf("%.2fM st/s", r.StepsPerSec()/1e6) }

// speedup renders how much faster the first run of a pair stepped.
func speedup(pr [2]EngineRun) string {
	x := 0.0
	if off := pr[1].StepsPerSec(); off > 0 {
		x = pr[0].StepsPerSec() / off
	}
	return fmt.Sprintf("%.2fx", x)
}

// FormatJITEngagement renders the deterministic superblock-engine
// counters of jit-mode runs: every column depends only on the workload,
// never on host speed, which is what makes this table the golden file
// for `benchtab -claim jit`.
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
