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

// JITRun is one wall-clock measurement of raw simulator speed with the
// trace-JIT superblock engine on or off (the decode cache stays on in
// both modes, so the pair isolates the JIT layer the same way
// DecodeCacheRun isolates the cache layer). The wall-clock numbers are
// host-dependent; the engagement counters (JITStats, Steps) are
// deterministic and golden-testable.
type JITRun struct {
	Workload string
	JITOff   bool
	// Steps is the number of guest instructions retired.
	Steps uint64
	// Elapsed is host wall-clock time.
	Elapsed time.Duration
	// Stats aggregates the superblock counters over every core.
	Stats cpu.JITStats
}

// StepsPerSec returns retired guest instructions per host second.
func (r JITRun) StepsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Steps) / r.Elapsed.Seconds()
}

// MeasureJITMicro runs the syscall-500 stress loop (the Table 5
// workload) natively and measures simulator stepping speed with the
// superblock engine in the given mode.
func MeasureJITMicro(n int, jitOff bool) (JITRun, error) {
	w := MicroWorld()
	w.K.JITOff = jitOff
	start := time.Now()
	p, err := interpose.Native{}.Launch(w, MicroPath, []string{"micro", fmt.Sprintf("%d", n)}, nil)
	if err != nil {
		return JITRun{}, err
	}
	if err := w.K.RunUntilExit(p, 2_000_000_000); err != nil {
		return JITRun{}, err
	}
	return finishJITRun(w, "micro-syscall500", jitOff, time.Since(start)), nil
}

// MeasureJITMacro runs the redis-like single-I/O-thread server (the
// Table 6 redis row) natively, drives it with injected requests, and
// measures simulator stepping speed — the paper-shape macro workload
// the ≥2x superblock speedup claim is made on.
func MeasureJITMacro(requests int, jitOff bool) (JITRun, error) {
	w, err := macroWorld()
	if err != nil {
		return JITRun{}, err
	}
	w.K.JITOff = jitOff
	start := time.Now()
	p, err := interpose.Native{}.Launch(w, apps.RedisPath, []string{"redis-server", "1"}, nil)
	if err != nil {
		return JITRun{}, err
	}
	if err := machine.Listen(context.Background(), w.K, p, make([]byte, apps.RequestSize), requests); err != nil {
		return JITRun{}, err
	}
	if err := w.K.RunUntilExit(p, 3_000_000_000); err != nil {
		return JITRun{}, err
	}
	return finishJITRun(w, "redis-like", jitOff, time.Since(start)), nil
}

func finishJITRun(w *interpose.World, name string, jitOff bool, elapsed time.Duration) JITRun {
	return JITRun{
		Workload: name,
		JITOff:   jitOff,
		Elapsed:  elapsed,
		Stats:    w.K.JITStats(),
		Steps:    machine.Insts(w.K),
	}
}

// FormatJIT renders jit-on/jit-off measurement pairs with the speedup
// factor, for cmd/benchtab and EXPERIMENTS.md E18. Wall-clock derived
// columns are host-dependent and must not be golden-tested.
func FormatJIT(pairs [][2]JITRun) string {
	out := fmt.Sprintf("%-18s %-14s %-14s %-9s %s\n",
		"Workload", "jit", "interp", "speedup", "coverage")
	for _, pr := range pairs {
		on, off := pr[0], pr[1]
		speedup := 0.0
		if off.StepsPerSec() > 0 {
			speedup = on.StepsPerSec() / off.StepsPerSec()
		}
		out += fmt.Sprintf("%-18s %-14s %-14s %-9s %s\n",
			on.Workload,
			fmt.Sprintf("%.2fM st/s", on.StepsPerSec()/1e6),
			fmt.Sprintf("%.2fM st/s", off.StepsPerSec()/1e6),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.1f%%", on.Stats.Coverage(on.Steps)*100))
	}
	return out
}

// FormatJITEngagement renders the deterministic superblock-engine
// counters of jit-on runs: every column depends only on the workload,
// never on host speed, which is what makes this table the golden file
// for `benchtab -claim jit`.
func FormatJITEngagement(runs []JITRun) string {
	out := fmt.Sprintf("%-18s %-12s %-8s %-9s %-12s %-9s %-6s %-7s %s\n",
		"Workload", "steps", "blocks", "entries", "block-insts", "coverage", "bails", "selfwr", "evict")
	for _, r := range runs {
		out += fmt.Sprintf("%-18s %-12d %-8d %-9d %-12d %-9s %-6d %-7d %d\n",
			r.Workload, r.Steps, r.Stats.Blocks, r.Stats.Entries,
			r.Stats.BlockInsts,
			fmt.Sprintf("%.1f%%", r.Stats.Coverage(r.Steps)*100),
			r.Stats.Bails, r.Stats.SelfWrites, r.Stats.Invalidations)
	}
	return out
}
