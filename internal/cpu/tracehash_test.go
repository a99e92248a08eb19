package cpu

import (
	"math/rand"
	"testing"
)

type traceStep struct {
	tid int
	rip uint64
	op  Op
}

func foldAll(steps []traceStep) TraceHash {
	h := NewTraceHash()
	for _, s := range steps {
		h.Fold(s.tid, s.rip, s.op)
	}
	return h
}

// randomTrace returns a stream interleaving three threads' runs of
// instructions, like a quantum-scheduled multithreaded guest.
func randomTrace(rng *rand.Rand, n int) []traceStep {
	steps := make([]traceStep, n)
	tid := 101
	for i := range steps {
		if rng.Intn(8) == 0 {
			tid = 101 + rng.Intn(3)
		}
		steps[i] = traceStep{tid: tid, rip: 0x400000 + uint64(rng.Intn(1<<12)), op: Op(rng.Intn(256))}
	}
	return steps
}

// TestTraceFoldSingleChange: changing any one field of any one element
// changes the final hash (each fold round is a bijection of the state,
// so this holds for every stream, not just with high probability).
func TestTraceFoldSingleChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		steps := randomTrace(rng, 1+rng.Intn(64))
		want := foldAll(steps)
		i := rng.Intn(len(steps))
		orig := steps[i]
		switch rng.Intn(3) {
		case 0:
			steps[i].tid ^= 1 << rng.Intn(16)
		case 1:
			steps[i].rip ^= 1 << rng.Intn(64)
		case 2:
			steps[i].op ^= 1 << rng.Intn(8)
		}
		if got := foldAll(steps); got == want {
			t.Fatalf("trial %d: changing step %d from %+v to %+v kept hash %#x", trial, i, orig, steps[i], got)
		}
	}
}

// TestTraceFoldAdjacentSwap: swapping two adjacent instructions of
// different threads — a scheduling-order divergence — changes the hash.
func TestTraceFoldAdjacentSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	swaps := 0
	for trial := 0; trial < 2000; trial++ {
		steps := randomTrace(rng, 2+rng.Intn(64))
		want := foldAll(steps)
		for i := 0; i+1 < len(steps); i++ {
			if steps[i].tid == steps[i+1].tid {
				continue
			}
			steps[i], steps[i+1] = steps[i+1], steps[i]
			if got := foldAll(steps); got == want {
				t.Fatalf("trial %d: swapping steps %d and %d kept hash %#x", trial, i, i+1, got)
			}
			steps[i], steps[i+1] = steps[i+1], steps[i]
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("no adjacent cross-thread pair was generated")
	}
}
