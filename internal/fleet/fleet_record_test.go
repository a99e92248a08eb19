package fleet

import (
	"context"
	"testing"

	"k23/internal/kernel"
	"k23/internal/machine"
	"k23/internal/rr"
)

// recordMachine records m's run through rr, the one recorder, with the
// same spec the fleet derives for it.
func recordMachine(t *testing.T, m Machine) *rr.Recording {
	t.Helper()
	s, err := rr.Record(rr.RunSpec{Name: m.Name, Mechanism: m.Mechanism, Path: m.Path, Argv: m.Argv,
		Server: m.Server, Requests: m.Requests, Seed: m.Seed, MaxInsts: m.MaxInsts,
		CheckpointEvery: 30_000}, rr.Hooks{})
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		t.Fatalf("machine %s: record: %v", m.Name, err)
	}
	return s.Rec
}

func runHashed(t *testing.T, machines []Machine) []Result {
	t.Helper()
	rep, err := Run(context.Background(), machines, Options{Workers: 4, Hash: true})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return rep.Machines
}

// TestFleetRecord proves every fleet machine records into a valid,
// replayable recording: each recording validates, replays without
// divergence, and its final state matches the fleet result's hashes.
func TestFleetRecord(t *testing.T) {
	machines := StandardFleet(4)
	results := runHashed(t, machines)
	for i, m := range machines {
		rec := recordMachine(t, m)
		if err := rec.Validate(); err != nil {
			t.Fatalf("machine %s: invalid recording: %v", m.Name, err)
		}
		f, res := rec.Final, results[i]
		if f.TraceHash != res.TraceHash || f.EventHash != res.EventHash || f.VFSHash != res.VFSHash {
			t.Fatalf("machine %s: result hashes disagree with recording final", m.Name)
		}
		s, err := rr.Replay(rec, rr.Hooks{})
		if err == nil {
			err = s.Run()
		}
		if err != nil {
			t.Fatalf("machine %s: replay: %v", m.Name, err)
		}
		if idx, d := s.Diverged(); d {
			t.Fatalf("machine %s: replay diverged at checkpoint %d", m.Name, idx)
		}
	}
}

// TestFleetRecordedEqualsUnrecorded: recording is an observer, not a
// second way of running a machine — every observable of a recorded
// machine equals the unrecorded fleet run's, including machines whose
// mechanism runs an offline phase and servers under K23.
func TestFleetRecordedEqualsUnrecorded(t *testing.T) {
	machines := StandardFleet(9)
	for _, w := range StandardFleet(9) {
		w.Name += "@k23-ultra+"
		w.Mechanism = "k23-ultra+"
		machines = append(machines, w)
	}
	results := runHashed(t, machines)
	for i, m := range machines {
		f := recordMachine(t, m).Final
		got := machine.Outcome{TraceHash: f.TraceHash, EventHash: f.EventHash, VFSHash: f.VFSHash,
			Steps: f.Steps, Syscalls: f.Syscalls,
			Exit:          kernel.ExitInfo{Code: f.ExitCode, Signal: f.ExitSignal},
			ChaosInjected: f.ChaosInjected}
		want := results[i].Outcome
		want.Exit.Fault = ""
		if got != want || got.TraceHash == 0 {
			t.Errorf("machine %s: recorded run differs from unrecorded:\n recorded   %+v\n unrecorded %+v", m.Name, got, want)
		}
	}
}
