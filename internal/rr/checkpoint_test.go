package rr

import (
	"testing"

	"k23/internal/kernel"
)

// TestKernelCheckpointRoundTrip is the kernel leg of the checkpoint
// property: Checkpoint → keep running (mutating cores, memory, fds,
// signals, VFS) → Restore must reproduce the exact pre-checkpoint
// kernel StateHash, and the same snapshot must survive repeated
// restores.
func TestKernelCheckpointRoundTrip(t *testing.T) {
	// The server workload retires tens of thousands of instructions after
	// launch (it polls for connections), so a checkpoint at +5k insts has
	// plenty of execution on both sides.
	s, err := Record(redisSpec(), Hooks{})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	k := s.W.K
	k.Run(5_000)

	h0 := k.StateHash()
	snap, err := k.Checkpoint(nil)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := k.StateHash(); got != h0 {
		t.Fatalf("taking a checkpoint perturbed the kernel: hash %#x, want %#x", got, h0)
	}

	k.Run(20_000)
	if k.StateHash() == h0 {
		t.Fatalf("running 20k insts did not change the state hash; test is vacuous")
	}
	k.Restore(snap)
	if got := k.StateHash(); got != h0 {
		t.Fatalf("restore: hash %#x, want %#x", got, h0)
	}

	k.Run(20_000)
	k.Restore(snap)
	if got := k.StateHash(); got != h0 {
		t.Fatalf("second restore from same snapshot: hash %#x, want %#x", got, h0)
	}
}

// FuzzCheckpointRestore drives the round-trip property over random
// checkpoint placement: a checkpoint taken after an arbitrary number of
// retired instructions, followed by an arbitrary amount of further
// execution, must restore to the exact captured state — and a delta
// checkpoint chained off it must too. A non-zero chaosSeed arms the
// chaos injector, so its stream position makes the round trip as well.
// A checkpoint taken right after a restore must hash like the snapshot
// restored.
func FuzzCheckpointRestore(f *testing.F) {
	f.Add(uint64(3), uint16(1), uint16(4), uint64(0))
	f.Add(uint64(9), uint16(17), uint16(2), uint64(5))
	f.Add(uint64(1), uint16(0), uint16(63), uint64(0x9e3779b9))
	f.Fuzz(func(t *testing.T, seed uint64, preRaw, midRaw uint16, chaosSeed uint64) {
		spec := redisSpec()
		spec.Seed = seed%64 + 1
		if chaosSeed != 0 {
			prof := kernel.DefaultChaosProfile()
			spec.Chaos, spec.ChaosSeed = &prof, chaosSeed
		}
		s, err := Record(spec, Hooks{})
		if err != nil {
			t.Fatalf("Record: %v", err)
		}
		k := s.W.K
		pre := uint64(preRaw) * 4
		mid := uint64(midRaw)*4 + 20
		if pre > 0 {
			k.Run(pre)
		}
		restore := func(snap *kernel.Snapshot, what string) {
			t.Helper()
			k.Restore(snap)
			again, err := k.Checkpoint(nil)
			if err != nil {
				t.Fatalf("Checkpoint after %s restore: %v", what, err)
			}
			if got, want := again.Hash(), snap.Hash(); got != want {
				t.Fatalf("%s: checkpoint right after restore hashes %#x, the snapshot %#x", what, got, want)
			}
		}

		h0 := k.StateHash()
		snap, err := k.Checkpoint(nil)
		if err != nil {
			t.Fatalf("Checkpoint at +%d: %v", pre, err)
		}
		k.Run(mid)
		restore(snap, "first")
		if got := k.StateHash(); got != h0 {
			t.Fatalf("ckpt at +%d, run %d more: restore hash %#x, want %#x", pre, mid, got, h0)
		}

		// A delta checkpoint chained off the first must restore too.
		k.Run(mid)
		h1 := k.StateHash()
		snap2, err := k.Checkpoint(snap)
		if err != nil {
			t.Fatalf("delta Checkpoint: %v", err)
		}
		k.Run(1_000)
		restore(snap2, "delta")
		if got := k.StateHash(); got != h1 {
			t.Fatalf("delta restore: hash %#x, want %#x", got, h1)
		}
	})
}
