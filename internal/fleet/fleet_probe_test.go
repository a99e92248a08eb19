package fleet

import (
	"bytes"
	"context"
	"testing"

	"k23/internal/machine"
	"k23/internal/obsv"
	"k23/internal/probe"
)

// TestFleetProbeDeterminism is the probe half of the fleet determinism
// contract: with a probe program installed, the merged aggregation must
// hash identically at workers=1 and workers=8 (Merge is commutative and
// the canonical export sorts), and the execution hashes must equal an
// unprobed run's exactly — engines ride the side-streams and charge no
// guest cycles, so probing must not perturb what it measures.
func TestFleetProbeDeterminism(t *testing.T) {
	compiled, err := obsv.CompileProbes(
		`syscall:*:exit { count() by (name, mech); hist(cycles) by (mech) }`)
	if err != nil {
		t.Fatal(err)
	}
	machines := StandardFleet(12)
	run := func(workers int) ([]Result, *probe.Snapshot) {
		rep, err := Run(context.Background(), machines, Options{
			Workers: workers,
			Hash:    true,
			Probes:  compiled,
		})
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		merged := &probe.Snapshot{}
		for i := range rep.Machines {
			o := rep.Machines[i].Obs
			if o == nil || o.Probes == nil {
				t.Fatalf("machine %s: no probe snapshot collected", rep.Machines[i].Name)
			}
			merged.Merge(o.Probes)
		}
		return normalize(rep), merged
	}

	hash := func(s *probe.Snapshot) uint64 {
		h, err := s.Hash()
		if err != nil {
			t.Fatalf("snapshot hash: %v", err)
		}
		return h
	}

	serial, serialSnap := run(1)
	_, parallelSnap := run(8)
	_, againSnap := run(8)

	if hash(serialSnap) != hash(parallelSnap) {
		t.Errorf("merged probe hash differs between workers=1 (%#x) and workers=8 (%#x)",
			hash(serialSnap), hash(parallelSnap))
	}
	if hash(parallelSnap) != hash(againSnap) {
		t.Errorf("repeated workers=8 runs produced different probe hashes: %#x vs %#x",
			hash(parallelSnap), hash(againSnap))
	}
	if len(serialSnap.Rows) == 0 {
		t.Fatal("no probe rows — probes not wired into the fleet?")
	}

	// Canonical JSONL is the equality the CLI parity checks rely on:
	// hash-equal snapshots must serialize byte-identically.
	var a, b bytes.Buffer
	if err := serialSnap.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallelSnap.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("hash-equal snapshots serialized differently")
	}

	// Non-perturbation: execution hashes match a run with no probes.
	plain, err := Run(context.Background(), machines, Options{Workers: 8, Hash: true})
	if err != nil {
		t.Fatalf("unprobed fleet run: %v", err)
	}
	for i := range serial {
		p := plain.Machines[i]
		s := serial[i]
		if s.TraceHash != p.TraceHash || s.EventHash != p.EventHash || s.VFSHash != p.VFSHash {
			t.Errorf("machine %s: probing perturbed execution: probed={%#x %#x %#x} plain={%#x %#x %#x}",
				s.Name, s.TraceHash, s.EventHash, s.VFSHash, p.TraceHash, p.EventHash, p.VFSHash)
		}
	}

	// The mech key must reflect each machine's mechanism (or "native"),
	// so the merged by-mech rows cover every mechanism the fleet runs.
	want := map[string]bool{}
	for _, m := range machines {
		want[machine.Spec{Mechanism: m.Mechanism}.Mech()] = true
	}
	got := map[string]bool{}
	for _, r := range serialSnap.Rows {
		if r.Func == "hist" && len(r.Key) == 1 {
			got[r.Key[0]] = true
		}
	}
	for mech := range want {
		if !got[mech] {
			t.Errorf("no hist row for mechanism %q in merged snapshot", mech)
		}
	}
}
