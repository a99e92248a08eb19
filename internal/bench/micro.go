// Package bench implements the paper's evaluation harness: the
// microbenchmark of Table 5 (a non-existent system call in a tight
// loop), the macrobenchmarks of Table 6 (nginx/lighttpd/redis/sqlite
// under every interposer), the Table 2 offline-phase profile, and text
// renderers for each table.
//
// Per-unit costs are extracted with a two-point slope: each measurement
// runs the workload at two sizes and divides the cycle delta by the size
// delta, cancelling all fixed startup costs (interposer initialization,
// loading, rewriting) exactly — the simulated analogue of the paper's
// 100M-iteration amortization. Every launch goes through one step,
// measure: a fresh World, the workload's offline phase, an attach point
// for collectors, then one run per size. Table 2 and Figure 2 run the
// offline phase alone.
package bench

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
	"k23/internal/obsv"
)

// MicroPath is the microbenchmark binary.
const MicroPath = "/bench/micro"

// MicroSyscall is the non-existent system call number the stress test
// invokes (paper §6.2.1).
const MicroSyscall = 500

// Micro iteration counts for the slope measurement.
const (
	microN1 = 500
	microN2 = 3500
)

// emitParseNum emits code parsing a decimal argv[1] into RBX
// (clobbers R8, RCX, R11).
func emitParseNum(t *asm.SectionBuilder) {
	t.Load(cpu.R8, cpu.RSI, 8) // argv[1]
	t.Xor(cpu.RBX, cpu.RBX)
	t.Label(".pn_loop")
	t.LoadB(cpu.RCX, cpu.R8, 0)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".pn_done")
	t.MovImm32(cpu.R11, 10)
	t.Mul(cpu.RBX, cpu.R11)
	t.AddImm(cpu.RCX, -'0')
	t.Add(cpu.RBX, cpu.RCX)
	t.AddImm(cpu.R8, 1)
	t.Jmp(".pn_loop")
	t.Label(".pn_done")
}

// microImage is the syscall stress test, assembled once per process:
// images are immutable, so every world shares it.
var microImage = sync.OnceValue(buildMicro)

// buildMicro builds the syscall stress test: argv[1] iterations of
// syscall number 500.
func buildMicro() *image.Image {
	b := asm.NewBuilder(MicroPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	emitParseNum(t)
	t.Label(".loop")
	t.MovImm32(cpu.RAX, MicroSyscall)
	t.Syscall()
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".loop")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b.MustBuild()
}

// MicroRow is one Table 5 row.
type MicroRow struct {
	Name string
	// Overhead is the per-iteration cycle cost relative to native
	// (1.0 = native).
	Overhead float64
	// CyclesPerIter is the absolute per-iteration cost.
	CyclesPerIter float64
}

// World builds a world with the standard workload set and the micro
// binary registered: every world the harness measures in. It builds
// nothing and returns ctx's error once ctx is done.
func World(ctx context.Context) (*interpose.World, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := interpose.NewWorld()
	w.MustRegister(microImage())
	return w, machine.StandardSetup(w)
}

// workload is one program the harness runs.
type workload struct {
	name string
	path string
	// offline is the argv the offline phase profiles.
	offline []string
	// server marks a program that serves its size in requests; sized
	// one that takes its size as argv[1] (the micro loop, speedtest1).
	// Any other program runs its offline argv at every size.
	server, sized bool
}

// at returns the argv and the request count of a run of wl at size n.
func (wl workload) at(n int) ([]string, int) {
	switch {
	case wl.server:
		return wl.offline, n
	case wl.sized:
		return []string{wl.offline[0], strconv.Itoa(n)}, 0
	}
	return wl.offline, 0
}

// micro is the Table 5 stress test; its offline phase runs 50 iterations.
var micro = workload{name: "micro", path: MicroPath, offline: []string{"micro", "50"}, sized: true}

// offlineRequests is the request count a server's offline phase serves:
// a representative request stream (§6.2).
const offlineRequests = 40

// offline runs wl's offline phase in w and returns the log path and the
// number of unique sites the log holds.
func offline(ctx context.Context, w *interpose.World, wl workload) (string, int, error) {
	requests := 0
	if wl.server {
		requests = offlineRequests
	}
	return machine.Offline(ctx, w, wl.path, wl.offline, requests)
}

// runBudget bounds every run the harness drives itself.
const runBudget = 3_000_000_000

// measure is the harness's one measurement step. In a fresh World it
// runs wl's offline phase when spec needs a log, calls attach (when not
// nil) at the attach point, where collectors go, and then runs wl under
// spec once per size to exit through machine.Exec. It returns the
// launcher and each run's process. A signal death is an error: every
// number the harness reports comes from a completed run.
func measure(ctx context.Context, spec variants.Spec, wl workload, attach func(*interpose.World), sizes ...int) (interpose.Launcher, []*kernel.Process, error) {
	w, err := World(ctx)
	if err != nil {
		return nil, nil, err
	}
	logPath := ""
	if spec.NeedsOfflineLog {
		if logPath, _, err = offline(ctx, w, wl); err != nil {
			return nil, nil, fmt.Errorf("bench: %s under %s: %w", wl.name, spec.Name, err)
		}
	}
	l := spec.New(interpose.Config{}, logPath)
	if attach != nil {
		attach(w)
	}
	ps := make([]*kernel.Process, len(sizes))
	for i, n := range sizes {
		argv, requests := wl.at(n)
		p, err := machine.Exec(ctx, w, l, wl.path, argv, requests, runBudget)
		if err == nil && p.Exit.Signal != 0 {
			err = fmt.Errorf("bench: %s under %s died: %s", wl.path, l.Name(), p.Exit)
		}
		if err != nil {
			return nil, nil, err
		}
		ps[i] = p
	}
	return l, ps, nil
}

// cycles is the total cycles of p's threads.
func cycles(p *kernel.Process) uint64 {
	var c uint64
	for _, t := range p.Threads {
		c += t.Cycles()
	}
	return c
}

// slope measures wl's marginal cycles per unit of size under spec: the
// cycle delta of runs at sizes n1 and n2 over the size delta.
func slope(ctx context.Context, spec variants.Spec, wl workload, attach func(*interpose.World), n1, n2 int) (float64, error) {
	_, ps, err := measure(ctx, spec, wl, attach, n1, n2)
	if err != nil {
		return 0, err
	}
	return float64(cycles(ps[1])-cycles(ps[0])) / float64(n2-n1), nil
}

// observe is measure with o installed at the attach point: it returns
// o's snapshot of the runs at sizes.
func observe(ctx context.Context, spec variants.Spec, wl workload, o *obsv.Observer, sizes ...int) (*obsv.Snapshot, error) {
	if _, _, err := measure(ctx, spec, wl, func(w *interpose.World) { o.Install(w.K) }, sizes...); err != nil {
		return nil, err
	}
	return o.Snapshot(), nil
}

// MicroSlope measures the marginal per-iteration cycle cost under a
// variant.
func MicroSlope(ctx context.Context, spec variants.Spec) (float64, error) {
	return slope(ctx, spec, micro, nil, microN1, microN2)
}

// Table5Variants lists the Table 5 rows in paper order.
func Table5Variants() []string {
	return []string{
		"zpoline-default", "zpoline-ultra", "lazypoline",
		"k23-default", "k23-ultra", "k23-ultra+",
		"sud-no-interposition", "sud",
	}
}

// Table5 measures the Table 5 microbenchmark for every variant.
func Table5(ctx context.Context) ([]MicroRow, error) {
	nativeSpec, _ := variants.ByName("native")
	native, err := MicroSlope(ctx, nativeSpec)
	if err != nil {
		return nil, err
	}
	rows := []MicroRow{{Name: "native", Overhead: 1, CyclesPerIter: native}}
	for _, name := range Table5Variants() {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		slope, err := MicroSlope(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		rows = append(rows, MicroRow{
			Name:          name,
			Overhead:      slope / native,
			CyclesPerIter: slope,
		})
	}
	return rows, nil
}

// PaperTable5 holds the paper's reported overheads for comparison in
// EXPERIMENTS.md and the benchtab tool.
var PaperTable5 = map[string]float64{
	"zpoline-default":      1.1267,
	"zpoline-ultra":        1.1576,
	"lazypoline":           1.3801,
	"k23-default":          1.2788,
	"k23-ultra":            1.3919,
	"k23-ultra+":           1.3948,
	"sud-no-interposition": 1.2269,
	"sud":                  15.3022,
}

// FormatTable5 renders measured rows next to the paper's numbers.
func FormatTable5(rows []MicroRow) string {
	out := fmt.Sprintf("%-22s %-12s %-12s %s\n", "Interposer", "measured", "paper", "cycles/iter")
	for _, r := range rows {
		paper := ""
		if v, ok := PaperTable5[r.Name]; ok {
			paper = fmt.Sprintf("%.4fx", v)
		} else if r.Name == "native" {
			paper = "1.0000x"
		}
		out += fmt.Sprintf("%-22s %-12s %-12s %.1f\n",
			r.Name, fmt.Sprintf("%.4fx", r.Overhead), paper, r.CyclesPerIter)
	}
	return out
}
