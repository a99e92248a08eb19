// Package rr is the deterministic record/replay engine: it records the
// minimal nondeterminism frontier of one simulated-machine run (initial
// virtual clock, injected workload payload, chaos-injector decision
// stream, run configuration), takes periodic whole-world checkpoints
// through kernel.Checkpoint, and replays the run — from the beginning or
// from any checkpoint — bit-identically. On top of the recording it
// offers time-travel: seeking to an arbitrary event ordinal by restoring
// the nearest checkpoint and re-executing forward, and a divergence
// bisector that localizes the first mismatch between two recordings to
// a checkpoint window and an event ordinal.
//
// Runs themselves belong to internal/machine: the recorder is an
// observer attached at the runner's attach point, taking checkpoints on
// the runner's slice boundaries, so a recorded run is the same
// execution as an unrecorded one (fleet's TestFleetRecordedEqualsUnrecorded). Record
// and Replay are the one way to record a run: the k23 CLI, the
// benchmarks and the tests call them, with any observers in
// Hooks.BeforeLaunch.
//
// The engine's correctness contract is frontier sufficiency: a replay
// consumes only what the recording carries — it re-derives nothing from
// the original seed — so if any source of nondeterminism escaped the
// frontier, replay hashes diverge and the replay-equivalence battery
// (internal/rr/rrtest) fails.
package rr

import "k23/internal/machine"

// The runner's listen-poll constants, re-exported for rr's callers.
const (
	PollSlice = machine.PollSlice
	PollTries = machine.PollTries
)

// DefaultCheckpointEvery is the checkpoint interval in virtual-clock
// ticks when RunSpec.CheckpointEvery is zero.
const DefaultCheckpointEvery = 250_000

// RunSpec is the run configuration half of the nondeterminism frontier
// (see machine.Spec). Replays do not consult its seed — they use the
// derived values stored in the Recording — which is what the
// recorded-frontier regression test exploits to prove the frontier is
// sufficient.
type RunSpec = machine.Spec

func checkpointEvery(s RunSpec) uint64 {
	if s.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return s.CheckpointEvery
}
