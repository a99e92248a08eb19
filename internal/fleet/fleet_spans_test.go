package fleet

import (
	"bytes"
	"context"
	"testing"

	"k23/internal/canon"
	"k23/internal/obsv"
	"k23/internal/span"
)

// TestFleetSpanDeterminism is the span half of the fleet determinism
// contract: with span building on, the merged per-machine span sets must
// hash identically at workers=1 and workers=8 (span sets are keyed by
// machine name, so merge order is schedule-independent), and the
// execution hashes must equal an untraced run's exactly — the phase
// side-stream must not perturb the simulation it is observing.
func TestFleetSpanDeterminism(t *testing.T) {
	machines := StandardFleet(12)
	run := func(workers int) ([]Result, uint64) {
		rep, err := Run(context.Background(), machines, Options{
			Workers: workers,
			Hash:    true,
			Obs:     obsv.Options{Spans: true},
		})
		if err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("fleet run (workers=%d): %v", workers, err)
		}
		var sets []*span.Set
		for i := range rep.Machines {
			o := rep.Machines[i].Obs
			if o == nil || len(o.Spans) == 0 {
				t.Fatalf("machine %s: no span sets collected", rep.Machines[i].Name)
			}
			sets = append(sets, o.Spans...)
		}
		h := canon.NewHash()
		for _, s := range span.Merge(sets) {
			h.Uint64(s.Hash())
		}
		return normalize(rep), uint64(h)
	}

	serial, serialHash := run(1)
	_, parallelHash := run(8)
	_, againHash := run(8)

	if serialHash != parallelHash {
		t.Errorf("merged span hash differs between workers=1 (%#x) and workers=8 (%#x)",
			serialHash, parallelHash)
	}
	if parallelHash != againHash {
		t.Errorf("repeated workers=8 runs produced different span hashes: %#x vs %#x",
			parallelHash, againHash)
	}
	if serialHash == 0 {
		t.Error("span hash is zero — span building not wired into the fleet?")
	}

	// Non-perturbation: execution hashes match a run with no observers.
	plain, err := Run(context.Background(), machines, Options{Workers: 8, Hash: true})
	if err != nil {
		t.Fatalf("untraced fleet run: %v", err)
	}
	for i := range serial {
		p := plain.Machines[i]
		s := serial[i]
		if s.TraceHash != p.TraceHash || s.EventHash != p.EventHash || s.VFSHash != p.VFSHash {
			t.Errorf("machine %s: span building perturbed execution: spans={%#x %#x %#x} plain={%#x %#x %#x}",
				s.Name, s.TraceHash, s.EventHash, s.VFSHash, p.TraceHash, p.EventHash, p.VFSHash)
		}
	}

	// Every machine's sets are tagged with its name and pass the span
	// schema check.
	for i := range serial {
		sets := serial[i].Obs.Spans
		for _, st := range sets {
			if st.Machine != serial[i].Name {
				t.Errorf("machine %s: span set tagged %q", serial[i].Name, st.Machine)
			}
		}
		var buf bytes.Buffer
		if err := span.WriteJSONL(&buf, sets...); err != nil {
			t.Fatal(err)
		}
		if rep, err := span.ValidateJSONL(&buf); err != nil || !rep.Ok() {
			t.Errorf("machine %s: invalid spans: %v %v", serial[i].Name, err, rep)
		}
	}
}
