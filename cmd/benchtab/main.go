// Command benchtab regenerates the paper's evaluation artifacts: every
// table (2, 3, 5, 6) and the content of every figure (1, 2, 4 — Figure 3
// is the log file printed by k23-offline), plus the standalone measured
// claims (startup syscall count, P4b memory overhead, engine counters,
// coverage, rr, phases, SFIP, probes), a fleet run and the chaos sweep.
// Every number it prints is simulated, so each output can be goldened or
// compared with cmp; the simulator's host time is measured by
// cmd/k23bench and by go test -bench.
//
// Usage:
//
//	benchtab -table 5
//	benchtab -table all
//	benchtab -figure 1
//	benchtab -claim startup
//	benchtab -claim decodecache
//	benchtab -claim coverage
//	benchtab -fleet 16 -workers 8
//	benchtab -fleet 16 -chaos 7 -fleet-trace fleet.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"

	"k23/internal/bench"
	"k23/internal/chaos"
	"k23/internal/cpu/difftest"
	"k23/internal/fleet"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/pitfalls"
)

// chaosSweepBase is the default -chaos-sweep base seed (also the one the
// internal/chaos tier-1 tests use), so a seed a failing test names
// reproduces with this command without copying flags.
const chaosSweepBase = 0xc1a05

// reportSweep prints one sweep report in the E16 shape, including a
// copy-pasteable repro command for every failing seed.
func reportSweep(w io.Writer, rep *chaos.Report) error {
	fmt.Fprintf(w, "seeds swept:    %d\n", rep.Seeds)
	fmt.Fprintf(w, "runs executed:  %d\n", rep.Runs)
	fmt.Fprintf(w, "perturbations:  %d\n", rep.Injected)
	fmt.Fprintf(w, "violations:     %d\n", len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
		fmt.Fprintf(w, "    repro: go run ./cmd/benchtab -chaos-repro %#x\n", v.Seed)
	}
	return fmt.Errorf("%d invariant violations", len(rep.Violations))
}

// engineRuns runs the micro (3000 iterations) and redis-like (200
// requests) workloads under engine mode m.
func engineRuns(m difftest.Mode) ([]bench.EngineRun, error) {
	micro, err := bench.MeasureEngineMicro(3000, m)
	if err != nil {
		return nil, err
	}
	macro, err := bench.MeasureEngineMacro(200, m)
	if err != nil {
		return nil, err
	}
	return []bench.EngineRun{micro, macro}, nil
}

func main() {
	table := flag.String("table", "", "regenerate a table: 2, 3, 5, 6, or all")
	figure := flag.String("figure", "", "regenerate a figure's content: 1, 2, or 4")
	claim := flag.String("claim", "", "measure a standalone claim: startup, p4b, decodecache, jit, probes, coverage, rr, phases or sfip")
	fleetN := flag.Int("fleet", 0, "run the standard fleet of N simulated machines (the app workload mix) and print its report")
	workers := flag.Int("workers", 8, "with -fleet: the worker count")
	sidecar := flag.Bool("metrics-sidecar", false, "print the per-variant observability sidecar (instrumented representative runs)")
	fleetTrace := flag.String("fleet-trace", "", "with -fleet: record each machine's flight-recorder trace and write tagged JSONL to FILE")
	chaosSeed := flag.Uint64("chaos", 0, "with -fleet: arm deterministic fault injection salted with this seed; with -chaos-sweep: the sweep base seed (0 = default)")
	chaosSweep := flag.Int("chaos-sweep", 0, "run the chaos invariant battery (apps + pitfall matrix + fleet) over N seeds (E16)")
	chaosRepro := flag.String("chaos-repro", "", "re-run the chaos invariant battery on one exact seed (hex or decimal), as printed by a failing sweep")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *table == "" && *figure == "" && *claim == "" && *fleetN == 0 && !*sidecar && *chaosSweep == 0 && *chaosRepro == "" {
		fmt.Fprintln(os.Stderr, "usage: benchtab -table 2|3|5|6|all | -figure 1|2|4 | -claim startup|p4b|decodecache|jit|probes|coverage|rr|phases|sfip | -fleet N [-workers W] | -metrics-sidecar | -chaos-sweep N | -chaos-repro SEED")
		os.Exit(2)
	}

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	doTable := func(which string) {
		switch which {
		case "2":
			run("Table 2 — offline-phase unique syscall sites", func() error {
				rows, err := bench.Table2()
				if err != nil {
					return err
				}
				fmt.Print(bench.FormatTable2(rows))
				return nil
			})
		case "3":
			run("Table 3 — pitfall matrix", func() error {
				results, err := pitfalls.Matrix(ctx, variants.Table3Columns())
				if err != nil {
					return err
				}
				fmt.Print(pitfalls.FormatMatrix(results))
				return nil
			})
		case "5":
			run("Table 5 — microbenchmark overhead vs native", func() error {
				rows, err := bench.Table5()
				if err != nil {
					return err
				}
				fmt.Print(bench.FormatTable5(rows))
				return nil
			})
		case "6":
			run("Table 6 — macrobenchmark relative throughput", func() error {
				rows, err := bench.Table6()
				if err != nil {
					return err
				}
				fmt.Print(bench.FormatTable6(rows))
				return nil
			})
		default:
			fmt.Fprintf(os.Stderr, "benchtab: unknown table %q\n", which)
			os.Exit(2)
		}
	}

	switch *table {
	case "":
	case "all":
		for _, t := range []string{"2", "3", "5", "6"} {
			doTable(t)
		}
	default:
		doTable(*table)
	}

	switch *figure {
	case "":
	case "1":
		run("Figure 1 — misidentification anatomy", func() error {
			fmt.Print(bench.Figure1())
			return nil
		})
	case "2":
		run("Figure 2 — offline phase flow", func() error {
			s, err := bench.Figure2()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	case "4":
		run("Figure 4 — online phase flow", func() error {
			s, err := bench.Figure4()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown figure %q (3 is `k23-offline ls`)\n", *figure)
		os.Exit(2)
	}

	switch *claim {
	case "":
	case "startup":
		run("Claim — startup syscalls before interposition (§6.1)", func() error {
			s, err := bench.ClaimStartup()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	case "p4b":
		run("Claim — NULL-exec check memory overhead (P4b)", func() error {
			s, err := bench.ClaimP4b()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	case "decodecache":
		run("Claim — decoded-instruction cache counters", func() error {
			runs, err := engineRuns(difftest.ModeCacheOnly)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatDecodeCache(runs))
			return nil
		})
	case "jit":
		run("Claim — trace-JIT superblock engagement (E18)", func() error {
			runs, err := engineRuns(difftest.ModeJIT)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatJITEngagement(runs))
			return nil
		})
	case "coverage":
		run("Claim — audited syscall coverage matrices (E17)", func() error {
			s, err := bench.CoverageTable()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	case "rr":
		run("Claim — checkpoint interval vs replay latency and space (E19)", func() error {
			rows, err := bench.MeasureRR([]uint64{10_000, 30_000, 100_000, 250_000})
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatRR(rows))
			return nil
		})
	case "phases":
		run("Claim — per-mechanism lifecycle phase cost decomposition (E20)", func() error {
			rows, err := bench.MeasurePhases()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatPhases(rows))
			return nil
		})
	case "sfip":
		run("Claim — syscall-flow-integrity policies: trips, false positives, hot-path cost (E21)", func() error {
			s, err := bench.SfipTable()
			if err != nil {
				return err
			}
			fmt.Print(s)
			return nil
		})
	case "probes":
		run("Claim — probe DSL: per-mechanism write latency from one probe line (E22)", func() error {
			snap, err := bench.MeasureProbes()
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatProbes(snap))
			return nil
		})
	default:
		fmt.Fprintf(os.Stderr, "benchtab: unknown claim %q\n", *claim)
		os.Exit(2)
	}

	if *sidecar {
		run("Observability sidecar — instrumented representative runs", func() error {
			names := append([]string{"native"}, bench.Table5Variants()...)
			rows, err := bench.MetricsSidecar(names)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatMetricsSidecar(rows))
			return nil
		})
	}

	if *fleetN > 0 {
		opt := fleet.Options{Workers: *workers}
		chaosTag := ""
		if *chaosSeed != 0 {
			prof := kernel.DefaultChaosProfile()
			opt.Chaos = &prof
			opt.ChaosSeed = *chaosSeed
			chaosTag = fmt.Sprintf(", chaos seed %#x", *chaosSeed)
		}
		if *fleetTrace != "" {
			opt.Obs = obsv.Options{Trace: true, Metrics: true}
		}
		run(fmt.Sprintf("Fleet — %d machines%s", *fleetN, chaosTag), func() error {
			rep, err := fleet.Run(ctx, fleet.StandardFleet(*fleetN), opt)
			if err != nil {
				return err
			}
			if err := rep.FirstErr(); err != nil {
				return err
			}
			fmt.Print(rep.Format())
			if *chaosSeed != 0 {
				var injected uint64
				for i := range rep.Machines {
					injected += rep.Machines[i].ChaosInjected
				}
				fmt.Printf("chaos: %d perturbations injected\n", injected)
			}
			if *fleetTrace != "" {
				return writeFleetTrace(rep, *fleetTrace)
			}
			return nil
		})
	}

	if *chaosSweep > 0 {
		base := *chaosSeed
		if base == 0 {
			base = chaosSweepBase
		}
		run(fmt.Sprintf("Chaos — invariant sweep, %d seeds from base %#x (E16)", *chaosSweep, base), func() error {
			rep, err := chaos.Sweep(chaos.Seeds(base, *chaosSweep), 8)
			if err != nil {
				return err
			}
			return reportSweep(os.Stdout, rep)
		})
	}

	if *chaosRepro != "" {
		seed, err := strconv.ParseUint(*chaosRepro, 0, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: bad -chaos-repro seed %q: %v\n", *chaosRepro, err)
			os.Exit(2)
		}
		run(fmt.Sprintf("Chaos — repro sweep, exact seed %#x", seed), func() error {
			rep, err := chaos.Sweep([]uint64{seed}, 8)
			if err != nil {
				return err
			}
			return reportSweep(os.Stdout, rep)
		})
	}
}

// writeFleetTrace writes every machine's flight-recorder trace of rep to
// path as tagged JSONL and prints the fleet-wide mechanism counts.
func writeFleetTrace(rep *fleet.Report, path string) error {
	var rings []obsv.Ring
	for i := range rep.Machines {
		if m := &rep.Machines[i]; m.Obs != nil {
			rings = append(rings, obsv.Ring{Machine: m.Name, Recs: m.Obs.Trace})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obsv.WriteJSONL(f, rings...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("per-machine traces written to %s\n", path)
	if merged := rep.MergedObs(); merged != nil && merged.Metrics != nil {
		fmt.Printf("fleet-wide: %d syscalls across %d machines, mechanisms:",
			merged.Metrics.TotalSyscalls(), len(rep.Machines))
		for _, m := range merged.Metrics.Mechanisms {
			fmt.Printf(" %s=%d", m.Mechanism, m.Count)
		}
		fmt.Println()
	}
	return nil
}
