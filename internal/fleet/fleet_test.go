package fleet

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/machine"
	"k23/internal/obsv"
)

// normalize zeroes host-timing fields so Results compare exactly.
func normalize(rep *Report) []Result {
	out := append([]Result(nil), rep.Machines...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// TestFleetDeterminism is the correctness spine of the fleet executor:
// the same machine configurations must produce bit-identical observable
// results — step-trace hash, kernel event stream hash, exit status, VFS
// tree hash, step and syscall counts, decode-cache counters — at
// workers=1 and workers=8, and across repeated workers=8 runs. Under
// `go test -race` this also proves no two Worlds share mutable state.
func TestFleetDeterminism(t *testing.T) {
	machines := StandardFleet(12)
	run := func(workers int) []Result {
		rep, err := Run(context.Background(), machines, Options{Workers: workers, Hash: true})
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		return normalize(rep)
	}
	serial := run(1)
	parallel := run(8)
	again := run(8)

	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("machine %s differs between workers=1 and workers=8:\n w1: %+v\n w8: %+v",
				serial[i].Name, serial[i], parallel[i])
		}
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("repeated workers=8 runs differ:\n first: %+v\nsecond: %+v", parallel, again)
	}
	for i := range serial {
		if serial[i].TraceHash == 0 || serial[i].Steps == 0 {
			t.Errorf("machine %s: empty trace (hash=%#x steps=%d) — hashing not wired?",
				serial[i].Name, serial[i].TraceHash, serial[i].Steps)
		}
	}
}

// TestFleetTracingDeterminism is the observability half of the
// determinism contract: with every collector on — flight recorder
// (deliberately small ring to force wraparound), metrics, profiler —
// per-machine results including the full retained event stream must be
// bit-identical at workers=1 and workers=8, and identical to the hashes
// of an untraced run (observers must not perturb execution). Under
// `go test -race` this also proves the per-World recorders share no
// state.
func TestFleetTracingDeterminism(t *testing.T) {
	machines := StandardFleet(12)
	obs := Options{
		Workers: 1,
		Hash:    true,
		// ring 128 guarantees wraparound; a short sampling period makes
		// even the quickest workloads (pwd) collect profile samples.
		Obs: obsv.Options{Trace: true, RingSize: 128, Metrics: true, ProfileEvery: 256},
	}
	run := func(workers int) []Result {
		o := obs
		o.Workers = workers
		rep, err := Run(context.Background(), machines, o)
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		return normalize(rep)
	}
	serial := run(1)
	parallel := run(8)

	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("machine %s (traced) differs between workers=1 and workers=8", serial[i].Name)
		}
	}

	// Observers must not perturb the simulation: hashes match an
	// untraced run exactly.
	plain, err := Run(context.Background(), machines, Options{Workers: 8, Hash: true})
	if err != nil {
		t.Fatalf("untraced fleet run: %v", err)
	}
	for i := range serial {
		p := plain.Machines[i]
		s := serial[i]
		if s.TraceHash != p.TraceHash || s.EventHash != p.EventHash || s.VFSHash != p.VFSHash {
			t.Errorf("machine %s: tracing perturbed execution: traced={%#x %#x %#x} plain={%#x %#x %#x}",
				s.Name, s.TraceHash, s.EventHash, s.VFSHash, p.TraceHash, p.EventHash, p.VFSHash)
		}
	}

	// Ring wraparound drops oldest-first: the retained ordinals are
	// contiguous, so the first one is the drop count.
	sawWrap := false
	for i := range serial {
		o := serial[i].Obs
		if o == nil || len(o.Trace) == 0 {
			t.Errorf("machine %s: no trace collected", serial[i].Name)
			continue
		}
		for j := 1; j < len(o.Trace); j++ {
			if o.Trace[j].Ord != o.Trace[j-1].Ord+1 {
				t.Fatalf("machine %s: trace ords not contiguous at %d: %d then %d",
					serial[i].Name, j, o.Trace[j-1].Ord, o.Trace[j].Ord)
			}
		}
		if m := o.Trace[0].Machine; m != serial[i].Name {
			t.Errorf("machine %s: trace records tagged %q", serial[i].Name, m)
		}
		if o.Trace[0].Ord > 0 {
			sawWrap = true
			if len(o.Trace) != 128 {
				t.Errorf("machine %s: wrapped ring retains %d records, want 128",
					serial[i].Name, len(o.Trace))
			}
		}
		if o.Metrics == nil || o.Metrics.TotalSyscalls() == 0 {
			t.Errorf("machine %s: no metrics collected", serial[i].Name)
		}
		if o.Profile == nil || len(o.Profile.Samples) == 0 {
			t.Errorf("machine %s: no profile samples", serial[i].Name)
		}
	}
	if !sawWrap {
		t.Error("no machine wrapped the 128-entry ring — test lost its wraparound coverage")
	}

	// The merged fleet view aggregates every machine.
	rep := &Report{Machines: serial}
	merged := rep.MergedObs()
	if merged == nil || merged.Metrics == nil {
		t.Fatal("MergedObs returned no metrics")
	}
	var want uint64
	for i := range serial {
		want += serial[i].Obs.Metrics.TotalSyscalls()
	}
	if got := merged.Metrics.TotalSyscalls(); got != want {
		t.Errorf("merged syscall total %d, want %d", got, want)
	}
	// Merged metrics are the same whatever the worker count and the
	// merge order.
	reversed := &obsv.Snapshot{}
	for i := len(parallel) - 1; i >= 0; i-- {
		reversed.Merge(parallel[i].Obs)
	}
	if !reflect.DeepEqual(merged.Metrics, reversed.Metrics) {
		t.Error("merged metrics differ between workers=1 and workers=8 folded in reverse order")
	}
}

// TestFleetJITDeterminism is the fleet half of the superblock-engine
// contract: with the JIT on (the default), per-machine results must be
// bit-identical at workers=1 and workers=8 — under `go test -race` this
// also proves the per-core block caches share no state — and every
// machine's Outcome must equal a JIT-off fleet's exactly (the JIT is
// switched off in each machine's Setup, before the offline phase).
// Full Results deliberately do NOT DeepEqual across modes: the
// engine-internal counters (DecodeCache, JIT) differ, which the test
// also pins so a future refactor can't quietly make the comparison
// vacuous.
func TestFleetJITDeterminism(t *testing.T) {
	run := func(workers int, jitOff bool) []Result {
		machines := StandardFleet(12)
		for i := range machines {
			machines[i].Setup = func(w *interpose.World) error {
				w.K.JITOff = jitOff
				return machine.StandardSetup(w)
			}
		}
		rep, err := Run(context.Background(), machines, Options{Workers: workers, Hash: true})
		if err != nil {
			t.Fatalf("fleet run (workers=%d jitOff=%v): %v", workers, jitOff, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (workers=%d jitOff=%v): %v", workers, jitOff, err)
		}
		return normalize(rep)
	}
	serial := run(1, false)
	parallel := run(8, false)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("machine %s (JIT on) differs between workers=1 and workers=8:\n w1: %+v\n w8: %+v",
				serial[i].Name, serial[i], parallel[i])
		}
	}

	interp := run(8, true)
	var jitEngaged bool
	for i := range serial {
		j, s := serial[i], interp[i]
		if j.Outcome != s.Outcome {
			t.Errorf("machine %s: observables differ between JIT and interpreter:\n jit: %+v\ninterp: %+v",
				j.Name, j, s)
		}
		if j.JIT.Entries > 0 {
			jitEngaged = true
		}
		if s.JIT != (cpu.JITStats{}) {
			t.Errorf("machine %s: JIT-off run recorded engine activity: %+v", s.Name, s.JIT)
		}
	}
	if !jitEngaged {
		t.Error("no machine entered a superblock — the JIT-mode comparison is vacuous")
	}
}

// TestFleetSeedsIndividualizeMachines: two machines running the same
// program with different seeds must be observably different (the seed
// shifts the virtual clock, and servers get seed-derived payloads),
// while the same seed reproduces the machine exactly.
func TestFleetSeedsIndividualizeMachines(t *testing.T) {
	mk := func(name string, seed uint64) Machine {
		m := StandardFleet(9)[8] // redis, a server workload
		m.Name, m.Seed = name, seed
		return m
	}
	machines := []Machine{mk("a", 1), mk("b", 2), mk("c", 1)}
	rep, err := Run(context.Background(), machines, Options{Workers: 3, Hash: true})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	a, b, c := rep.Machines[0], rep.Machines[1], rep.Machines[2]
	if a.EventHash == b.EventHash && a.TraceHash == b.TraceHash && a.VFSHash == b.VFSHash {
		t.Errorf("seeds 1 and 2 produced identical machines (event=%#x trace=%#x vfs=%#x)",
			a.EventHash, a.TraceHash, a.VFSHash)
	}
	if a.EventHash != c.EventHash || a.TraceHash != c.TraceHash || a.VFSHash != c.VFSHash {
		t.Errorf("same seed diverged: a={%#x %#x %#x} c={%#x %#x %#x}",
			a.EventHash, a.TraceHash, a.VFSHash, c.EventHash, c.TraceHash, c.VFSHash)
	}
}

// spinMachine is a guest that never exits: the wedged-guest scenario.
func spinMachine(name string, maxInsts uint64) Machine {
	return Machine{
		Name:     name,
		Seed:     7,
		Path:     "/bin/spin",
		Argv:     []string{"spin"},
		MaxInsts: maxInsts,
		Setup: func(w *interpose.World) error {
			b := asm.NewBuilder("/bin/spin")
			tx := b.Text()
			tx.Label("_start")
			tx.Label(".l")
			tx.Jmp(".l")
			w.MustRegister(b.MustBuild())
			return nil
		},
	}
}

// TestFleetCancellation: a wedged guest must not stall the pool — the
// context deadline reclaims its worker, and machines that already ran
// keep their results.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	machines := []Machine{
		StandardFleet(1)[0],        // pwd: completes immediately
		spinMachine("spin", 1<<62), // wedged until the deadline
	}
	rep, err := Run(ctx, machines, Options{Workers: 2})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if rep.Machines[0].Err != "" {
		t.Errorf("healthy machine failed: %s", rep.Machines[0].Err)
	}
	if rep.Machines[1].Err == "" || !strings.Contains(rep.Machines[1].Err, "context deadline") {
		t.Errorf("wedged machine: got err %q, want context deadline", rep.Machines[1].Err)
	}
}

// TestFleetOfflineCancellation: the K23 offline phase is driven under
// the machine's context too — a guest that spins forever while being
// profiled returns the context error promptly after cancel.
func TestFleetOfflineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := spinMachine("spin@k23-ultra", 1<<62)
	m.Mechanism = "k23-ultra"
	var cancelled time.Time
	time.AfterFunc(200*time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	rep, err := Run(ctx, []Machine{m}, Options{Workers: 1})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if took := time.Since(cancelled); took > 2*time.Second {
		t.Errorf("machine returned %s after cancel, want < 2s", took)
	}
	if got := rep.Machines[0].Err; !strings.Contains(got, "context canceled") {
		t.Errorf("got err %q, want context canceled", got)
	}
}

// TestFleetWall: every machine reports the host time it took, bounded by
// the whole fleet's.
func TestFleetWall(t *testing.T) {
	rep, err := Run(context.Background(), StandardFleet(4), Options{Workers: 2})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	for _, m := range rep.Machines {
		if m.Wall <= 0 || m.Wall > rep.Wall {
			t.Errorf("machine %s: wall %s, want in (0, %s]", m.Name, m.Wall, rep.Wall)
		}
	}
}

// TestFleetBudget: a machine that exhausts its instruction budget
// reports the exhaustion instead of hanging.
func TestFleetBudget(t *testing.T) {
	rep, err := Run(context.Background(),
		[]Machine{spinMachine("spin", 1_000_000)}, Options{Workers: 1})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if got := rep.Machines[0].Err; !strings.Contains(got, "budget exhausted") {
		t.Errorf("got err %q, want budget exhaustion", got)
	}
}

// TestStandardFleetStable: fleet construction itself is deterministic.
func TestStandardFleetStable(t *testing.T) {
	a := StandardFleet(7)
	b := StandardFleet(7)
	for i := range a {
		a[i].Setup, b[i].Setup = nil, nil // func values don't compare
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("StandardFleet is not stable across calls")
	}
}

// TestReportAggregates: aggregate arithmetic over a synthetic report,
// and a Format that reads no host time.
func TestReportAggregates(t *testing.T) {
	rep := &Report{
		Workers: 2,
		Wall:    2 * time.Second,
		Machines: []Result{
			{Name: "a", Outcome: machine.Outcome{Steps: 3_000_000, Syscalls: 10}},
			{Name: "b", Outcome: machine.Outcome{Steps: 1_000_000, Syscalls: 32}},
		},
	}
	if got := rep.TotalSteps(); got != 4_000_000 {
		t.Errorf("TotalSteps = %d, want 4000000", got)
	}
	if got := rep.TotalSyscalls(); got != 42 {
		t.Errorf("TotalSyscalls = %d, want 42", got)
	}
	out := rep.Format()
	for _, want := range []string{"a", "b", "2 machines", "2 workers", "4000000 steps", "42 syscalls"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
	// Host time is not part of the report's text.
	rep.Wall, rep.Machines[0].Wall = time.Hour, time.Minute
	if again := rep.Format(); again != out {
		t.Errorf("Format() depends on Wall:\n%s\nvs\n%s", out, again)
	}
}

// TestDifftestMatchesFleet ties the engine battery to the fleet's
// executions: for every app workload, difftest.Run (seed 0) yields the
// same trace hash, event hash, steps and exit as a hashed fleet machine
// with seed 0, so jit ≡ interp is proven on the runs the fleet and rr
// execute.
func TestDifftestMatchesFleet(t *testing.T) {
	workloads := difftest.AppWorkloads()
	machines := make([]Machine, len(workloads))
	for i, w := range workloads {
		machines[i] = Machine{Name: w.Name, Path: w.Path, Argv: w.Argv, Server: w.Server, Requests: w.Requests}
	}
	rep, err := Run(context.Background(), machines, Options{Workers: 2, Hash: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		snap, err := difftest.Run(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		m := &rep.Machines[i]
		got := [4]any{snap.TraceHash, snap.EventHash, snap.Steps, snap.Exit}
		want := [4]any{m.TraceHash, m.EventHash, m.Steps, m.Exit}
		if got != want || snap.TraceHash == 0 {
			t.Errorf("%s: difftest (trace, events, steps, exit) = %v, fleet = %v", w.Name, got, want)
		}
	}
}
