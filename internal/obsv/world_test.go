package obsv_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/bench"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
	"k23/internal/obsv"
	"k23/internal/sfip"
)

const loopPath = "/bin/obsloop"

// loopWorld builds a world with a guest that issues `iters` getpid
// syscalls and exits 0.
func loopWorld(iters int) *interpose.World {
	w := interpose.NewWorld()
	b := asm.NewBuilder(loopPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.MovImm32(cpu.RBX, uint32(iters))
	t.Label(".loop")
	t.MovImm32(cpu.RAX, kernel.SysGetpid)
	t.Syscall()
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".loop")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	w.MustRegister(b.MustBuild())
	return w
}

func runLoop(t *testing.T, w *interpose.World, iters int) *kernel.Process {
	t.Helper()
	p, err := w.L.Spawn(loopPath, []string{"obsloop"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.K.RunUntilExit(p, 500_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Exit.Signal != 0 || p.Exit.Code != 0 {
		t.Fatalf("guest failed: %s", p.Exit)
	}
	return p
}

// TestObserverEndToEnd drives a real guest with every collector on and
// checks each output surface.
func TestObserverEndToEnd(t *testing.T) {
	const iters = 300
	w := loopWorld(iters)
	o := obsv.New(obsv.Options{Trace: true, RingSize: 4096, Metrics: true, ProfileEvery: 64})
	o.Install(w.K)
	runLoop(t, w, iters)
	snap := o.Snapshot()

	// Metrics: the loop's getpid calls all land in one row with
	// non-zero attributed cost.
	if snap.Metrics == nil {
		t.Fatal("no metrics")
	}
	var getpid *obsv.SyscallStat
	for i := range snap.Metrics.Syscalls {
		if snap.Metrics.Syscalls[i].Name == "getpid" {
			getpid = &snap.Metrics.Syscalls[i]
		}
	}
	if getpid == nil || getpid.Count < iters {
		t.Fatalf("getpid row = %+v, want count >= %d", getpid, iters)
	}
	if getpid.Hist.Count != getpid.Count || getpid.Hist.Sum == 0 {
		t.Errorf("getpid latency histogram empty: %+v", getpid.Hist)
	}
	// Every call costs at least the trap; the per-call mean must
	// reflect that.
	if mean := float64(getpid.Hist.Sum) / float64(getpid.Hist.Count); mean < float64(w.K.Cost.Trap) {
		t.Errorf("getpid mean cost %.0f below trap cost %d", mean, w.K.Cost.Trap)
	}
	if snap.Metrics.DecodeCache.Hits == 0 {
		t.Error("decode-cache stats not captured in snapshot")
	}

	// Trace: enter/exit records survive in the ring and serialize to
	// valid JSONL and readable strace text.
	if len(snap.Trace) == 0 {
		t.Fatal("no trace records")
	}
	var jsonl bytes.Buffer
	if err := obsv.WriteJSONL(&jsonl, obsv.Ring{Recs: snap.Trace}); err != nil {
		t.Fatal(err)
	}
	n, err := obsv.ValidateJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatalf("real trace failed schema validation: %v", err)
	}
	if n != len(snap.Trace) {
		t.Errorf("validated %d of %d records", n, len(snap.Trace))
	}
	var straceBuf bytes.Buffer
	if err := obsv.WriteStrace(&straceBuf, snap.Trace); err != nil {
		t.Fatal(err)
	}
	out := straceBuf.String()
	for _, want := range []string{"getpid()", "+++ exited with code 0 +++"} {
		if !strings.Contains(out, want) {
			t.Errorf("strace output missing %q", want)
		}
	}

	// Profile: virtual-clock sampling caught the loop, and the samples
	// symbolize against the guest's memory map.
	if snap.Profile == nil || len(snap.Profile.Samples) == 0 {
		t.Fatal("no profile samples")
	}
	symbolized := false
	for _, s := range snap.Profile.Samples {
		if s.Region != "?" {
			symbolized = true
		}
	}
	if !symbolized {
		t.Error("no profile sample symbolized to a mapped region")
	}
	var pb bytes.Buffer
	if err := snap.Profile.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	if pb.Len() == 0 {
		t.Error("empty pprof output")
	}
}

// TestObserverDeterministic: two identical runs with all collectors on
// produce byte-identical snapshots (trace, metrics, profile).
func TestObserverDeterministic(t *testing.T) {
	run := func() (string, string) {
		w := loopWorld(100)
		o := obsv.New(obsv.Options{Trace: true, Metrics: true, ProfileEvery: 128})
		o.Install(w.K)
		runLoop(t, w, 100)
		snap := o.Snapshot()
		var tr, met bytes.Buffer
		if err := obsv.WriteJSONL(&tr, obsv.Ring{Recs: snap.Trace}); err != nil {
			t.Fatal(err)
		}
		if err := snap.Metrics.WriteJSON(&met); err != nil {
			t.Fatal(err)
		}
		var prof bytes.Buffer
		if err := snap.Profile.WriteFolded(&prof); err != nil {
			t.Fatal(err)
		}
		return tr.String() + met.String(), prof.String()
	}
	a1, p1 := run()
	a2, p2 := run()
	if a1 != a2 {
		t.Error("trace+metrics output differs between identical runs")
	}
	if p1 != p2 {
		t.Error("profile output differs between identical runs")
	}
}

// TestDisabledObserverInstallsNoHook is the structural half of the
// nil-cost contract: an Observer with no collectors subscribes no sink
// to either stream and installs no profiler. A sink on the event or
// the phase stream would advance that stream's ordinal, which the
// state hash covers. The timing half, TestDisabledHookGuard, is a
// wall-clock test behind the timing build tag.
func TestDisabledObserverInstallsNoHook(t *testing.T) {
	plain := loopWorld(10)
	runLoop(t, plain, 10)
	w := loopWorld(10)
	obsv.New(obsv.Options{}).Install(w.K)
	if w.K.Tracing() || w.K.ProfileHook != nil {
		t.Fatal("disabled observer subscribed an event sink or a profiler")
	}
	runLoop(t, w, 10)
	if w.K.StateHash() != plain.K.StateHash() {
		t.Fatal("disabled observer subscribed a sink: the run's state differs from an unobserved one")
	}
}

// endlessLoop is an obsloop guest that outlives any test: 2^30 getpid
// round trips.
const endlessLoop = 1 << 30

// spawnWarm starts the obsloop guest on w and runs it until its loop
// runs in compiled superblocks.
func spawnWarm(tb testing.TB, w *interpose.World) {
	tb.Helper()
	if _, err := w.L.Spawn(loopPath, []string{"obsloop"}, nil); err != nil {
		tb.Fatal(err)
	}
	w.K.Run(100_000)
}

// sliceAllocs returns the mean allocations of one scheduler slice of
// the warm obsloop guest on w: 10,000 instructions, 2,500 getpid calls.
func sliceAllocs(t *testing.T, w *interpose.World) float64 {
	t.Helper()
	spawnWarm(t, w)
	return testing.AllocsPerRun(20, func() { w.K.Run(10_000) })
}

// TestWarmSyscallAllocs: a warm plain getpid loop allocates nothing —
// not on the syscall round trip, not in guest memory accesses and not
// in the I-cache refills after each kernel entry's flush. Neither does
// the Table 5 micro loop under any interposing mechanism with a nil
// hook: the interposed call path, SIGSYS decode included, builds its
// Call on the stack.
func TestWarmSyscallAllocs(t *testing.T) {
	if n := sliceAllocs(t, loopWorld(endlessLoop)); n != 0 {
		t.Errorf("warm getpid slice: %v allocations, want 0", n)
	}
	for _, name := range bench.Table5Variants() {
		t.Run(name, func(t *testing.T) {
			spec, _ := variants.ByName(name)
			w, err := bench.World(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			l, err := machine.Launcher(context.Background(), w, spec, interpose.Config{}, bench.MicroPath, []string{"micro", "50"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Launch(w, bench.MicroPath, []string{"micro", "1000000000"}, nil); err != nil {
				t.Fatal(err)
			}
			w.K.Run(100_000)
			if n := testing.AllocsPerRun(20, func() { w.K.Run(10_000) }); n != 0 {
				t.Errorf("warm micro slice: %v allocations, want 0", n)
			}
		})
	}
}

// TestDisabledHookAllocs is the clock-free companion of the timing
// test TestDisabledHookGuard: an installed all-off observer adds no
// allocation to any syscall event, and neither do the collectors that
// read each event in place, the auditor and an SFIP enforcer in log
// mode. Spans are left out: the span builder allocates for every
// syscall span it opens (10,000 allocations per slice).
func TestDisabledHookAllocs(t *testing.T) {
	plain := sliceAllocs(t, loopWorld(endlessLoop))
	for _, tc := range []struct {
		name string
		opts obsv.Options
	}{
		{"all-off", obsv.Options{}},
		{"audit", obsv.Options{Audit: true}},
		{"sfip-log", obsv.Options{SfipPolicy: loopPolicy(t), SfipMode: sfip.ModeLog}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := loopWorld(endlessLoop)
			obsv.New(tc.opts).Install(w.K)
			if n := sliceAllocs(t, w); n != plain {
				t.Errorf("%v allocations per slice, plain run %v", n, plain)
			}
		})
	}
}

// loopPolicy learns an SFIP policy from a warm obsloop run, so an
// enforcer holding it sees no violation in the loop's steady state.
func loopPolicy(t *testing.T) *sfip.Policy {
	t.Helper()
	w := loopWorld(endlessLoop)
	o := obsv.New(obsv.Options{SfipLearn: true})
	o.Learner.LearnAll = true
	o.Install(w.K)
	spawnWarm(t, w)
	return o.Learner.Policy()
}

// TestTraceFoldAllocs: hashing the retired-instruction stream
// allocates nothing per instruction — a traced slice allocates exactly
// what an untraced one does.
func TestTraceFoldAllocs(t *testing.T) {
	plain := sliceAllocs(t, loopWorld(endlessLoop))
	w := loopWorld(endlessLoop)
	h := cpu.NewTraceHash()
	w.K.Trace = &h
	if traced := sliceAllocs(t, w); traced != plain {
		t.Errorf("traced: %v allocations per slice, untraced %v", traced, plain)
	}
	if h == cpu.NewTraceHash() {
		t.Fatal("trace hash never folded an instruction")
	}
}

// BenchmarkTraceFold reports host ns per retired instruction of the
// warm obsloop guest with and without the trace hash.
func BenchmarkTraceFold(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			w := loopWorld(endlessLoop)
			h := cpu.NewTraceHash()
			if traced {
				w.K.Trace = &h
			}
			spawnWarm(b, w)
			b.ReportAllocs()
			b.ResetTimer()
			var insts uint64
			for i := 0; i < b.N; i++ {
				insts += w.K.Run(10_000)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}

// BenchmarkObserver measures what each collector set costs the
// simulator: the Table 5 micro loop, 20,000 iterations under
// k23-default, with the observer of each configuration installed. The
// world, the offline phase and the launcher are built with the timer
// stopped; steps/s is retired guest instructions over b.Elapsed().
// "no observer" installs nothing, "all off" installs an Observer with
// every collector off, which must cost what "no observer" costs.
func BenchmarkObserver(b *testing.B) {
	const variant = "k23-default"
	spec, _ := variants.ByName(variant)
	probes, err := obsv.CompileProbes(`syscall:*:exit { hist(cycles) by (mech) }`)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts *obsv.Options
	}{
		{"no-observer", nil},
		{"all-off", &obsv.Options{}},
		{"metrics", &obsv.Options{Metrics: true}},
		{"audit", &obsv.Options{Audit: true}},
		{"spans", &obsv.Options{Spans: true}},
		{"probes", &obsv.Options{Probes: probes, ProbeMech: variant}},
		{"trace+metrics", &obsv.Options{Trace: true, Metrics: true}},
		{"trace+metrics+profile", &obsv.Options{Trace: true, Metrics: true, ProfileEvery: obsv.DefaultProfileEvery}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var steps uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := bench.World(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				l, err := machine.Launcher(context.Background(), w, spec, interpose.Config{}, bench.MicroPath, []string{"micro", "50"}, 0)
				if err != nil {
					b.Fatal(err)
				}
				if c.opts != nil {
					obsv.New(*c.opts).Install(w.K)
				}
				before := machine.Insts(w.K)
				b.StartTimer()
				if _, err := machine.Exec(context.Background(), w, l, bench.MicroPath, []string{"micro", "20000"}, 0, 1_000_000_000); err != nil {
					b.Fatal(err)
				}
				steps += machine.Insts(w.K) - before
			}
			b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
