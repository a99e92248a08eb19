// Command k23 runs a workload binary on the simulated platform under a
// chosen system call interposer, with optional strace-style tracing,
// per-syscall metrics, and guest profiling.
//
// Usage:
//
//	k23 [-variant NAME] [-trace] [-stats] [-metrics FILE] [-prom FILE]
//	    [-trace-json FILE] [-profile FILE] [-folded FILE]
//	    [-profile-every N] [-audit] [-audit-json FILE]
//	    [-sfip-learn FILE] [-sfip FILE] [-sfip-mode MODE] [-sfip-json FILE]
//	    [-spans FILE] [-perfetto FILE] [-critpath] [-probe PROG]
//	    [-seed N] [-requests N] [-chaos SEED]
//	    [-record FILE | -replay FILE] [-until S,...] PROG [ARGS...]
//
// PROG is one of the registered workloads (pwd, touch, ls, cat, clear,
// nginx, lighttpd, redis-server, sqlite3) by basename or full path;
// servers are driven by one injected keepalive connection. K23 variants
// automatically run the offline phase on the same invocation first.
// Every run — live, recorded or replayed — goes through the one machine
// runner with the recorder observing, so every flag works with -record
// and -replay alike. k23 exits 0 when the run completes (the guest's
// exit status is printed), 128+N when the guest dies by signal N, 3
// when a replay diverges from its recording, and 1 on a run error.
//
// When the guest dies by signal and the flight recorder is on, k23
// prints the recorder excerpt around the fatal event — the crash-time
// "what was it doing" view.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"k23/internal/apps"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/probe"
	"k23/internal/rr"
	"k23/internal/sfip"
	"k23/internal/span"
)

// writeFile writes one observability artifact, reporting but not
// aborting on failure (the guest already ran).
func writeFile(path, what string, write func(f *os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "k23: %s: %v\n", what, err)
		return
	}
	fmt.Fprintf(os.Stderr, "[obsv] %s written to %s\n", what, path)
}

// writeSpanOutputs emits the span-layer artifacts.
func writeSpanOutputs(sets []*span.Set, spansOut, perfettoOut string, critPath bool) {
	if len(sets) == 0 {
		return
	}
	if spansOut != "" {
		writeFile(spansOut, "span JSONL", func(f *os.File) error {
			return span.WriteJSONL(f, sets...)
		})
	}
	if perfettoOut != "" {
		writeFile(perfettoOut, "Perfetto trace", func(f *os.File) error {
			return span.WritePerfetto(f, sets...)
		})
	}
	if critPath {
		rep := span.Analyze(sets...)
		fmt.Fprintf(os.Stderr, "[spans] %d spans (%d syscall, %d handler, %d signal); critical path of the longest lifecycle chain:\n",
			rep.Spans, rep.Kinds[span.KindSyscall], rep.Kinds[span.KindHandler], rep.Kinds[span.KindSignal])
		fmt.Fprint(os.Stderr, span.FormatSteps(span.CriticalPath(sets[0], 0)))
	}
}

// writeProbeOutputs emits the probe aggregation JSONL (stdout when no
// -probe-out file).
func writeProbeOutputs(snap *probe.Snapshot, out string) {
	if snap == nil {
		return
	}
	if out == "" {
		if err := snap.WriteJSONL(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "k23: probe JSONL: %v\n", err)
		}
		return
	}
	writeFile(out, "probe JSONL", func(f *os.File) error {
		return snap.WriteJSONL(f)
	})
}

// writeSfipOutputs emits the SFIP artifacts: the learned policy and/or
// the enforcement report.
func writeSfipOutputs(snap *obsv.Snapshot, learnOut, reportOut string) {
	if learnOut != "" && snap.SfipPolicy != nil {
		p := snap.SfipPolicy
		fmt.Fprintf(os.Stderr, "[sfip] learned policy: %d origin(s), %d edge(s), hash %#x\n",
			p.Origins(), p.Edges(), p.Hash())
		writeFile(learnOut, "SFIP policy JSONL", func(f *os.File) error {
			return p.WriteJSONL(f)
		})
	}
	if rep := snap.Sfip; rep != nil {
		rep.Format(os.Stderr)
		if reportOut != "" {
			writeFile(reportOut, "SFIP report JSONL", func(f *os.File) error {
				return rep.WriteJSONL(f)
			})
		}
	}
}

func main() {
	variant := flag.String("variant", "k23-ultra", "interposer variant (see -list)")
	trace := flag.Bool("trace", false, "record and print a strace-style syscall trace")
	traceJSON := flag.String("trace-json", "", "write the flight-recorder trace as JSONL to FILE")
	ringSize := flag.Int("ring", obsv.DefaultRingSize, "flight-recorder capacity in events")
	metricsOut := flag.String("metrics", "", "write per-syscall metrics as JSON to FILE")
	promOut := flag.String("prom", "", "write metrics in Prometheus text format to FILE")
	profileOut := flag.String("profile", "", "write a pprof profile (gzipped protobuf) to FILE")
	foldedOut := flag.String("folded", "", "write folded stacks (flamegraph input) to FILE")
	profileEvery := flag.Uint64("profile-every", 0,
		"sample guest RIP every N virtual ticks (0 = default when -profile/-folded set)")
	auditFlag := flag.Bool("audit", false, "join the kernel's ground-truth syscall stream against the interposer's claims and print the audit report (coverage, escapes, TTFC)")
	auditJSON := flag.String("audit-json", "", "write the audit report as JSONL to FILE (validate with obsvcheck)")
	sfipLearn := flag.String("sfip-learn", "", "train a syscall-flow-integrity policy on this run (audit-classified, escapes excluded) and write it as JSONL to FILE (validate with obsvcheck)")
	sfipIn := flag.String("sfip", "", "load a learned SFIP policy from FILE and check the run's trap-origin syscalls against it (posture set by -sfip-mode)")
	sfipModeFlag := flag.String("sfip-mode", "enforce", "SFIP posture with -sfip: log (report violations, perturb nothing) or enforce (deny violations with EPERM)")
	sfipJSON := flag.String("sfip-json", "", "write the SFIP enforcement report as JSONL to FILE (validate with obsvcheck)")
	probeSrc := flag.String("probe", "", "run this probe program (bpftrace-style, e.g. 'syscall:write:exit { hist(cycles) by (mech) }') over the run's event streams; with -replay, runs it retroactively over the recording")
	probeFile := flag.String("probe-file", "", "read the probe program from FILE instead of -probe")
	probeOut := flag.String("probe-out", "", "write probe aggregations as canonical JSONL to FILE (validate with obsvcheck; default stdout)")
	spansOut := flag.String("spans", "", "assemble causal syscall-lifecycle spans and write them as JSONL to FILE (validate with obsvcheck; with -replay, derives the trace retroactively)")
	perfettoOut := flag.String("perfetto", "", "write the span trace as Chrome/Perfetto trace_event JSON to FILE (open in ui.perfetto.dev)")
	critPath := flag.Bool("critpath", false, "print the critical path of the longest syscall lifecycle chain (requires -spans or -perfetto)")
	stats := flag.Bool("stats", false, "print interposition statistics")
	chaosSeed := flag.Uint64("chaos", 0,
		"arm deterministic fault injection salted with this seed (0 = off); perturbations appear in the trace as chaos events")
	recordOut := flag.String("record", "", "write the run's nondeterminism frontier, event stream and checkpoints as JSONL to FILE (replay with -replay)")
	replayIn := flag.String("replay", "", "replay the recording in FILE instead of running PROG; verifies bit-identical re-execution")
	untilSeqs := flag.String("until", "", "after the run, seek to these comma-separated event ordinals from the nearest checkpoint (use the seq column of -audit-json escapes)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint interval in virtual ticks (0 = default)")
	seed := flag.Uint64("seed", 1, "world seed (derives the virtual clock and server payloads)")
	requests := flag.Int("requests", 10, "requests per injected connection for server workloads")
	list := flag.Bool("list", false, "list interposer variants")
	flag.Parse()

	if *list {
		for _, s := range variants.Specs() {
			extra := ""
			if s.ExtraFeatures != "" {
				extra = " (" + s.ExtraFeatures + ")"
			}
			fmt.Printf("  %s%s\n", s.Name, extra)
		}
		return
	}
	if _, ok := variants.ByName(*variant); !ok {
		fmt.Fprintf(os.Stderr, "k23: unknown variant %q (try -list)\n", *variant)
		os.Exit(2)
	}
	var rec *rr.Recording
	var spec rr.RunSpec
	if *replayIn != "" {
		f, err := os.Open(*replayIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23: replay:", err)
			os.Exit(1)
		}
		rec, err = rr.ReadJSONL(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23: replay:", err)
			os.Exit(1)
		}
		spec = rec.Spec
	} else {
		args := flag.Args()
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "usage: k23 [-variant NAME] [-trace] [-stats] [-metrics FILE] [-profile FILE] [-record FILE | -replay FILE [-until S,...]] PROG [ARGS...]")
			os.Exit(2)
		}
		path, argv, ok := apps.Command(args)
		if !ok {
			fmt.Fprintf(os.Stderr, "k23: unknown program %q\n", args[0])
			os.Exit(2)
		}
		spec = rr.RunSpec{
			Name: argv[0], Mechanism: *variant,
			Path: path, Argv: argv,
			Server: apps.IsServer(path), Requests: *requests,
			Seed: *seed, CheckpointEvery: *ckptEvery,
		}
		if *chaosSeed != 0 {
			prof := kernel.DefaultChaosProfile()
			spec.Chaos = &prof
			spec.ChaosSeed = *chaosSeed
		}
	}

	sfipMode, err := sfip.ParseMode(*sfipModeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "k23:", err)
		os.Exit(2)
	}
	var probes *probe.Compiled
	if *probeSrc != "" || *probeFile != "" {
		src := *probeSrc
		if *probeFile != "" {
			if src != "" {
				fmt.Fprintln(os.Stderr, "k23: -probe and -probe-file are mutually exclusive")
				os.Exit(2)
			}
			b, err := os.ReadFile(*probeFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "k23: probe:", err)
				os.Exit(2)
			}
			src = string(b)
		}
		probes, err = obsv.CompileProbes(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23: probe:", err)
			os.Exit(2)
		}
	}
	var sfipPolicy *sfip.Policy
	if *sfipIn != "" {
		f, err := os.Open(*sfipIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23: sfip:", err)
			os.Exit(2)
		}
		sfipPolicy, err = sfip.ReadPolicy(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "k23: sfip: %s: %v\n", *sfipIn, err)
			os.Exit(2)
		}
	}

	// Derive the observer from the requested outputs: any trace output
	// needs the recorder, any metrics output the aggregator, any profile
	// output the sampler. It attaches at the runner's attach point —
	// after the offline phase, the controlled environment no observer
	// covers — both live and on -replay, which is what makes live and
	// replay-derived artifacts byte-comparable. On replay the probe mech
	// context comes from the recording's spec, not the -variant default.
	mech := spec.Mech()
	opts := obsv.Options{
		Machine:    spec.Name,
		Trace:      *trace || *traceJSON != "",
		RingSize:   *ringSize,
		Metrics:    *metricsOut != "" || *promOut != "",
		Spans:      *spansOut != "" || *perfettoOut != "" || *critPath,
		Audit:      *auditFlag || *auditJSON != "",
		SfipLearn:  *sfipLearn != "",
		SfipPolicy: sfipPolicy,
		SfipMode:   sfipMode,
		Probes:     probes,
		ProbeMech:  mech,
	}
	if *profileOut != "" || *foldedOut != "" || *profileEvery != 0 {
		opts.ProfileEvery = *profileEvery
		if opts.ProfileEvery == 0 {
			opts.ProfileEvery = obsv.DefaultProfileEvery
		}
	}
	var obs *obsv.Observer
	hooks := rr.Hooks{BeforeLaunch: func(w *interpose.World) {
		if opts.Enabled() {
			obs = obsv.New(opts)
			obs.Install(w.K)
		}
	}}

	// Every run is recorded — the recorder only observes — so -record
	// merely writes the recording out, and -until can seek in any run.
	var s *rr.Session
	if rec != nil {
		s, err = rr.Replay(rec, hooks)
	} else {
		s, err = rr.Record(spec, hooks)
	}
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "k23: run:", err)
		os.Exit(1)
	}
	p, l := s.P, s.Launcher()
	os.Stdout.Write(p.Stdout)
	os.Stderr.Write(p.Stderr)
	fmt.Fprintf(os.Stderr, "[%s] %s\n", l.Name(), p.Exit)
	if spec.Chaos != nil {
		fmt.Fprintf(os.Stderr, "[chaos] seed %#x: %d perturbations injected\n",
			spec.ChaosSeed, s.Rec.Final.ChaosInjected)
	}
	exitStatus := 0
	if p.Exit.Signal != 0 {
		exitStatus = 128 + p.Exit.Signal
	}
	if *recordOut != "" || rec != nil {
		fmt.Fprintf(os.Stderr, "[rr] %d events, %d checkpoints, trace %#x event %#x vfs %#x\n",
			s.Rec.Final.Events, s.NumCheckpoints(),
			s.Rec.Final.TraceHash, s.Rec.Final.EventHash, s.Rec.Final.VFSHash)
	}
	if rec != nil {
		if i, diverged := s.Diverged(); diverged {
			fmt.Fprintf(os.Stderr, "[rr] replay DIVERGED at checkpoint %d of %d\n", i, s.NumCheckpoints())
			if d := rr.Bisect(rec, s.Rec); d != nil {
				fmt.Fprintf(os.Stderr, "[rr] bisect: %s\n", d)
			}
			exitStatus = 3
		} else {
			fmt.Fprintln(os.Stderr, "[rr] replay bit-identical to the recording")
		}
	}
	if *stats {
		st := l.Stats(p)
		fmt.Fprintf(os.Stderr, "interposed: %d ptrace, %d rewritten, %d sud; %d sites rewritten\n",
			st.Ptraced, st.Rewritten, st.SUD, st.Sites)
	}

	if obs != nil {
		snap := obs.Snapshot()
		if *trace {
			if snap.TraceSeq > uint64(len(snap.Trace)) {
				fmt.Fprintf(os.Stderr, "[trace] ring dropped the oldest %d of %d events\n",
					snap.TraceSeq-uint64(len(snap.Trace)), snap.TraceSeq)
			}
			if p.Exit.Signal != 0 {
				// Fault dump: the recorder excerpt around the fatal event.
				fmt.Fprintf(os.Stderr, "[trace] guest died (%s); flight recorder around the fatal event:\n", p.Exit)
				_ = obsv.WriteStrace(os.Stderr, obsv.Excerpt(snap.Trace, 8))
			} else {
				_ = obsv.WriteStrace(os.Stderr, snap.Trace)
			}
		}
		if *traceJSON != "" {
			writeFile(*traceJSON, "trace JSONL", func(f *os.File) error {
				return obsv.WriteJSONL(f, obsv.Ring{Recs: snap.Trace})
			})
		}
		if *metricsOut != "" {
			writeFile(*metricsOut, "metrics JSON", func(f *os.File) error {
				return snap.Metrics.WriteJSON(f)
			})
		}
		if *promOut != "" {
			writeFile(*promOut, "Prometheus metrics", func(f *os.File) error {
				snap.Metrics.WritePrometheus(f, [][2]string{{"variant", mech}})
				if len(snap.Spans) != 0 {
					obsv.WriteSpanPrometheus(f, snap.Spans, [][2]string{{"variant", mech}})
				}
				return nil
			})
		}
		if *profileOut != "" {
			writeFile(*profileOut, "pprof profile", func(f *os.File) error {
				return snap.Profile.WritePprof(f)
			})
		}
		if *foldedOut != "" {
			writeFile(*foldedOut, "folded stacks", func(f *os.File) error {
				return snap.Profile.WriteFolded(f)
			})
		}
		writeSpanOutputs(snap.Spans, *spansOut, *perfettoOut, *critPath)
		if audit := snap.Audit; audit != nil {
			if *auditFlag {
				fmt.Fprintf(os.Stderr, "[audit] ground-truth coverage report for %s under %s:\n", spec.Name, l.Name())
				audit.Format(os.Stderr)
			}
			if *auditJSON != "" {
				writeFile(*auditJSON, "audit JSONL", func(f *os.File) error {
					return audit.WriteJSONL(f)
				})
			}
		}
		writeProbeOutputs(snap.Probes, *probeOut)
		writeSfipOutputs(snap, *sfipLearn, *sfipJSON)
	}

	if *recordOut != "" {
		f, err := os.Create(*recordOut)
		if err == nil {
			err = s.Rec.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23: record:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[rr] recording written to %s\n", *recordOut)
	}

	// Time-travel: seek to each requested event ordinal from the nearest
	// checkpoint at or below it, reporting how much re-execution that
	// cost versus a replay from tick 0.
	if *untilSeqs != "" {
		for _, tok := range strings.Split(*untilSeqs, ",") {
			target, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "k23: -until: bad seq %q\n", tok)
				os.Exit(2)
			}
			sk, err := s.SeekSeq(target)
			if err != nil {
				fmt.Fprintln(os.Stderr, "k23: seek:", err)
				os.Exit(1)
			}
			from := fmt.Sprintf("restored checkpoint %d", sk.From)
			if sk.From < 0 {
				from = "replayed launch from tick 0"
			}
			fmt.Fprintf(os.Stderr, "[rr] seek seq=%d: %s, re-executed %d of %d steps (vclock %d)\n",
				sk.Target, from, sk.ReExecuted, s.Rec.Final.Steps, sk.VClock)
		}
	}
	os.Exit(exitStatus)
}
