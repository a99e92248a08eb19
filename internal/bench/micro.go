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
// 100M-iteration amortization.
package bench

import (
	"context"
	"fmt"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/libc"
	"k23/internal/machine"
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

// MicroWorld builds a world with the micro binary registered.
func MicroWorld() *interpose.World {
	w := interpose.NewWorld()
	w.MustRegister(buildMicro())
	return w
}

// MicroLauncher returns spec's launcher in w, profiling a short micro
// run offline first when spec needs a log.
func MicroLauncher(w *interpose.World, spec variants.Spec) (interpose.Launcher, error) {
	return machine.Launcher(context.Background(), w, spec, interpose.Config{}, MicroPath, []string{"micro", "50"}, 0)
}

// runMicroOnce runs the stress test for n iterations under l and returns
// the main thread's total cycles.
func runMicroOnce(w *interpose.World, l interpose.Launcher, n int) (uint64, error) {
	p, err := l.Launch(w, MicroPath, []string{"micro", fmt.Sprintf("%d", n)}, nil)
	if err != nil {
		return 0, err
	}
	if err := w.K.RunUntilExit(p, 2_000_000_000); err != nil {
		return 0, err
	}
	if p.Exit.Signal != 0 {
		return 0, fmt.Errorf("bench: micro died under %s: %s", l.Name(), p.Exit)
	}
	var cycles uint64
	for _, t := range p.Threads {
		cycles += t.Cycles()
	}
	return cycles, nil
}

// MicroSlope measures the marginal per-iteration cycle cost under a
// variant.
func MicroSlope(spec variants.Spec) (float64, error) {
	w := MicroWorld()
	l, err := MicroLauncher(w, spec)
	if err != nil {
		return 0, err
	}
	c1, err := runMicroOnce(w, l, microN1)
	if err != nil {
		return 0, err
	}
	c2, err := runMicroOnce(w, l, microN2)
	if err != nil {
		return 0, err
	}
	return float64(c2-c1) / float64(microN2-microN1), nil
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
func Table5() ([]MicroRow, error) {
	nativeSpec, _ := variants.ByName("native")
	native, err := MicroSlope(nativeSpec)
	if err != nil {
		return nil, err
	}
	rows := []MicroRow{{Name: "native", Overhead: 1, CyclesPerIter: native}}
	for _, name := range Table5Variants() {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		slope, err := MicroSlope(spec)
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

// SimulatorThroughput runs the microbenchmark once under a variant and
// returns the number of guest instructions retired — a raw simulator
// speed probe for the top-level BenchmarkSimulator.
func SimulatorThroughput(spec variants.Spec) (uint64, error) {
	w := MicroWorld()
	l := spec.New(interpose.Config{}, "")
	p, err := l.Launch(w, MicroPath, []string{"micro", "2000"}, nil)
	if err != nil {
		return 0, err
	}
	if err := w.K.RunUntilExit(p, 2_000_000_000); err != nil {
		return 0, err
	}
	var insts uint64
	for _, t := range p.Threads {
		insts += t.Core.Insts
	}
	return insts, nil
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
