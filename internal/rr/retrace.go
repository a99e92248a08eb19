package rr

import (
	"fmt"

	"k23/internal/interpose"
)

// Retrace replays rec with extra observers attached at the production
// boundary (the same BeforeLaunch point a live run uses) and verifies
// the re-execution stayed bit-identical to the recording.
//
// This is the retroactive-tracing contract: observability that was OFF
// during the original run can be derived after the fact by replaying
// the recording with it ON. It is sound because every collector rides
// a side-stream — phase marks carry their own ordinal (kernel.PhaseMark.Seq)
// and never touch the event sequence the recording hashes, and an event
// sink only reads the event it is handed — so attaching one cannot perturb
// the recorded schedule. Retrace enforces that by failing loudly if the
// traced replay diverges from the recording at any checkpoint: a
// divergence here means an observer leaked into execution, not that the
// recording is bad.
//
// The returned session has finished its run; read the derived artifacts
// off whatever attach installed (e.g. an obsv.Observer's Snapshot).
func Retrace(rec *Recording, attach func(w *interpose.World)) (*Session, error) {
	s, err := Replay(rec, Hooks{BeforeLaunch: attach})
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	if i, diverged := s.Diverged(); diverged {
		return nil, fmt.Errorf("rr: retrace diverged at checkpoint %d of %d — the attached observer perturbed the replay",
			i, s.NumCheckpoints())
	}
	return s, nil
}
