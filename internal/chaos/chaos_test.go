package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"k23/internal/apps"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// Tier-1 smoke sweep: a handful of seeds through all three invariant
// sweeps. The full 64-seed sweep runs via `benchtab -chaos-sweep` (see
// EXPERIMENTS.md E16) and in the CI chaos job.

func testSeeds(t *testing.T, n int) []uint64 {
	if testing.Short() {
		n = 2
	}
	return Seeds(0xc1a05, n)
}

func TestSweepAppsInvariants(t *testing.T) {
	rep, err := sweepApps(context.Background(), testSeeds(t, 4), kernel.DefaultChaosProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if rep.Injected == 0 {
		t.Fatal("sweep injected nothing: chaos is not reaching the app workloads")
	}
	t.Logf("apps: %d runs, %d perturbations", rep.Runs, rep.Injected)
}

func TestSweepMatrixInvariants(t *testing.T) {
	rep, err := sweepMatrix(context.Background(), testSeeds(t, 4), kernel.SignalChaosProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	t.Logf("matrix: %d runs", rep.Runs)
}

func TestSweepFleetInvariants(t *testing.T) {
	rep, err := sweepFleet(context.Background(), testSeeds(t, 2), 6, 1, 4, kernel.DefaultChaosProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if rep.Injected == 0 {
		t.Fatal("fleet sweep injected nothing")
	}
	t.Logf("fleet: %d runs, %d perturbations", rep.Runs, rep.Injected)
}

// TestSweepStopsOnCancelledContext: a sweep whose context is already
// done returns context.Canceled, and no report, without booting a
// world (one machine.Start allocates about 400 objects).
func TestSweepStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var rep *Report
	var err error
	allocs := testing.AllocsPerRun(1, func() { rep, err = Sweep(ctx, Seeds(0xc1a05, 2), 2) })
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("Sweep = %v, %v; want no report and context.Canceled", rep, err)
	}
	if allocs > 100 {
		t.Errorf("cancelled sweep made %v allocations, want under 100 (no world booted)", allocs)
	}
}

// TestSeedsDeterministic pins the seed expansion: a violation report
// from any machine must reproduce anywhere from the seed alone.
func TestSeedsDeterministic(t *testing.T) {
	a, b := Seeds(7, 5), Seeds(7, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Seeds not deterministic at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	if a[0] == a[1] {
		t.Fatal("consecutive seeds identical")
	}
}

// TestChaosDecisionStreamPinned pins the injector's decision log and
// perturbation count for three seeds of the default profile on a
// served redis run. Which calls are eligible, in what order the
// injector is queried and which errno each class draws all feed this
// stream, so it moves only when chaos semantics deliberately change.
func TestChaosDecisionStreamPinned(t *testing.T) {
	want := []struct {
		injected, decisions int
		hash                uint64
	}{
		{24, 24, 0x91d852180faa3835},
		{16, 16, 0xce530da8ab771295},
		{13, 13, 0x1496e3875bf27421},
	}
	prof := kernel.DefaultChaosProfile()
	for i, seed := range Seeds(0xc1a05, len(want)) {
		spec := machine.Spec{Name: "redis", Path: apps.RedisPath, Argv: []string{"redis-server", "1"},
			Server: true, Requests: 40, Seed: seed, Chaos: &prof}
		r, err := machine.Start(context.Background(), spec, machine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Drive(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		ds := r.W.K.ChaosDecisions()
		for _, d := range ds {
			fmt.Fprintf(h, "%d %s %d\n", d.Q, d.Kind, d.Val)
		}
		got := want[i]
		got.injected, got.decisions, got.hash = int(r.W.K.ChaosInjected()), len(ds), h.Sum64()
		if got != want[i] {
			t.Errorf("seed %#x: injected %d, %d decisions, hash %#x; want %d, %d, %#x",
				seed, got.injected, got.decisions, got.hash, want[i].injected, want[i].decisions, want[i].hash)
		}
	}
}
