package fleet

import (
	"context"
	"testing"

	"k23/internal/interpose"
	"k23/internal/rr"
)

// TestFleetRecord proves Options.Record attaches a valid, replayable
// recording to every machine: each recording validates, replays without
// divergence, and the replay's final state matches the fleet result's
// own hashes.
func TestFleetRecord(t *testing.T) {
	machines := StandardFleet(4)
	rep, err := Run(context.Background(), machines, Options{
		Workers: 2, Record: true, CheckpointEvery: 30_000,
	})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	for i := range rep.Machines {
		m := &rep.Machines[i]
		if m.Recording == nil {
			t.Fatalf("machine %s: no recording", m.Name)
		}
		if err := m.Recording.Validate(); err != nil {
			t.Fatalf("machine %s: invalid recording: %v", m.Name, err)
		}
		f := m.Recording.Final
		if f.TraceHash != m.TraceHash || f.EventHash != m.EventHash || f.VFSHash != m.VFSHash {
			t.Fatalf("machine %s: result hashes disagree with recording final", m.Name)
		}
		s, err := rr.Replay(m.Recording, rr.Hooks{})
		if err != nil {
			t.Fatalf("machine %s: Replay: %v", m.Name, err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("machine %s: replay run: %v", m.Name, err)
		}
		if idx, d := s.Diverged(); d {
			t.Fatalf("machine %s: replay diverged at checkpoint %d", m.Name, idx)
		}
	}
}

// TestFleetRecordDeterministic: a recorded fleet is still worker-count
// invariant — same recordings at workers=1 and workers=4.
func TestFleetRecordDeterministic(t *testing.T) {
	machines := StandardFleet(4)
	run := func(workers int) *Report {
		rep, err := Run(context.Background(), machines, Options{
			Workers: workers, Record: true, CheckpointEvery: 30_000,
		})
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		return rep
	}
	a, b := run(1), run(4)
	for i := range a.Machines {
		ra, rb := a.Machines[i].Recording, b.Machines[i].Recording
		if ra == nil || rb == nil {
			t.Fatalf("machine %d: missing recording", i)
		}
		if err := ra.EquivalentTo(rb); err != nil {
			t.Fatalf("machine %d: workers=1 vs workers=4 recordings differ: %v", i, err)
		}
	}
}

// TestFleetRecordRejectsCustomSetup: machines with a private Setup
// cannot be captured; they must fail loudly, not record garbage.
func TestFleetRecordRejectsCustomSetup(t *testing.T) {
	machines := StandardFleet(1)
	machines[0].Setup = func(w *interpose.World) error { return nil }
	rep, err := Run(context.Background(), machines, Options{Record: true})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if rep.Machines[0].Err == "" {
		t.Fatalf("custom-Setup machine recorded without error")
	}
}

// TestFleetRecordedEqualsUnrecorded: recording is an observer, not a
// second way of running a machine — every observable of a recorded
// machine equals the unrecorded run's, including machines whose
// mechanism runs an offline phase and servers under K23.
func TestFleetRecordedEqualsUnrecorded(t *testing.T) {
	machines := StandardFleet(9)
	for _, w := range StandardFleet(9) {
		switch w.Name[:len(w.Name)-3] {
		case "pwd", "touch", "ls", "cat", "clear", "nginx", "lighttpd", "redis":
			w.Name += "@k23-ultra+"
			w.Mechanism = "k23-ultra+"
			machines = append(machines, w)
		}
	}
	run := func(record bool) []Result {
		rep, err := Run(context.Background(), machines, Options{Workers: 4, Hash: true, Record: record})
		if err != nil {
			t.Fatalf("fleet run (record=%v): %v", record, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (record=%v): %v", record, err)
		}
		return rep.Machines
	}
	plain, recorded := run(false), run(true)
	for i := range plain {
		p, r := plain[i], recorded[i]
		if p.TraceHash != r.TraceHash || p.EventHash != r.EventHash || p.VFSHash != r.VFSHash ||
			p.Steps != r.Steps || p.Syscalls != r.Syscalls || p.Exit != r.Exit {
			t.Errorf("machine %s: recorded run differs from unrecorded:\n plain    %+v\n recorded %+v", p.Name, p, r)
		}
		if p.Recording != nil || r.Recording == nil {
			t.Errorf("machine %s: recording attached only with Record", p.Name)
		}
	}
}
