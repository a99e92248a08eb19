package rr

import (
	"bytes"
	"fmt"
	"testing"

	"k23/internal/apps"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/probe"
)

// probeParityProgram exercises both side-streams (events and phase
// marks), all aggregation functions, and the emit ring.
const probeParityProgram = `syscall:*:exit { count() by (name); hist(cycles) by (mech) }
phase:*:kernel { sum(cycles) }
chaos:inject { emit() }
syscall:*:exit /errno != 0/ { count() by (name, errno) }`

// probeAttach returns a BeforeLaunch hook installing a probe and metrics
// observer, plus a getter for the resulting canonical probe JSONL bytes
// and metrics JSON bytes.
func probeAttach(t *testing.T, mech string) (func(w *interpose.World), func(t *testing.T) ([]byte, []byte)) {
	compiled, err := obsv.CompileProbes(probeParityProgram)
	if err != nil {
		t.Fatalf("CompileProbes: %v", err)
	}
	var obs *obsv.Observer
	attach := func(w *interpose.World) {
		obs = obsv.New(obsv.Options{Probes: compiled, ProbeMech: mech, Metrics: true})
		obs.Install(w.K)
	}
	dump := func(t *testing.T) ([]byte, []byte) {
		t.Helper()
		if obs == nil {
			t.Fatal("observer was never attached")
		}
		snap := obs.Snapshot()
		var probes, metrics bytes.Buffer
		if err := snap.Probes.WriteJSONL(&probes); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		if err := snap.Metrics.WriteJSON(&metrics); err != nil {
			t.Fatalf("metrics WriteJSON: %v", err)
		}
		return probes.Bytes(), metrics.Bytes()
	}
	return attach, dump
}

// TestReplayDerivedProbeParity is the retroactive-probing contract: the
// aggregations a probe program produces when replaying an unprobed
// recording must be byte-identical to those of a live-probed run of the
// same workload, and so must the metrics (a built-in probe program).
// Probe engines ride the side-stream hooks and charge no guest cycles,
// so probing perturbs neither the recording nor the replay — proven
// here across three apps, each with two distinct chaos seeds, plus a
// chaos-free baseline.
func TestReplayDerivedProbeParity(t *testing.T) {
	chaos := kernel.DefaultChaosProfile()
	base := []RunSpec{
		{Name: "pwd", Path: apps.PwdPath, Argv: []string{"pwd"}, Seed: 7, CheckpointEvery: 30_000},
		{Name: "ls", Path: apps.LsPath, Argv: []string{"ls", "/data"}, Seed: 10, CheckpointEvery: 30_000},
		{Name: "cat", Path: apps.CatPath, Argv: []string{"cat", "/data/notes.txt"}, Seed: 11, CheckpointEvery: 30_000},
	}
	var specs []RunSpec
	for _, b := range base {
		specs = append(specs, b)
		for _, cs := range []uint64{1, 2} {
			s := b
			s.Name = fmt.Sprintf("%s-chaos%d", b.Name, cs)
			s.Chaos = &chaos
			s.ChaosSeed = cs
			specs = append(specs, s)
		}
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// Live-probed recording.
			liveAttach, liveDump := probeAttach(t, spec.Mechanism)
			live, err := Record(spec, Hooks{BeforeLaunch: liveAttach})
			if err != nil {
				t.Fatalf("Record (probed): %v", err)
			}
			if err := live.Run(); err != nil {
				t.Fatalf("probed Run: %v", err)
			}
			liveBytes, liveMetrics := liveDump(t)
			if len(liveBytes) == 0 {
				t.Fatal("live probe output is empty")
			}

			// Unprobed recording of the same workload: the probe engine
			// must not have perturbed what got recorded.
			plain := record(t, spec)
			if err := plain.Rec.EquivalentTo(live.Rec); err != nil {
				t.Fatalf("probe engine perturbed the recording: %v", err)
			}

			// Retroactive aggregation from the unprobed recording. The
			// mech context comes from the recording's spec, mirroring what
			// `k23 -replay -probe` does.
			retroAttach, retroDump := probeAttach(t, plain.Rec.Spec.Mechanism)
			if _, err := Retrace(plain.Rec, retroAttach); err != nil {
				t.Fatalf("Retrace: %v", err)
			}
			retroBytes, retroMetrics := retroDump(t)

			if !bytes.Equal(liveBytes, retroBytes) {
				t.Errorf("replay-derived probe output differs from live output (%d vs %d bytes)",
					len(liveBytes), len(retroBytes))
			}
			if !bytes.Equal(liveMetrics, retroMetrics) {
				t.Errorf("replay-derived metrics JSON differs from live metrics JSON (%d vs %d bytes)",
					len(liveMetrics), len(retroMetrics))
			}
			// The derived output stands on its own: it validates.
			n, err := probe.ValidateJSONL(bytes.NewReader(retroBytes))
			if err != nil {
				t.Fatalf("derived probe output invalid: %v", err)
			}
			if n == 0 {
				t.Error("derived probe output has no records")
			}
		})
	}
}
