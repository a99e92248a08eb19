package cpu

// TraceHash hashes a retired-instruction stream, one (tid, rip, op)
// triple per instruction. Its value is the hash so far, so a recorder
// can save it at a checkpoint and restore it before re-executing.
//
// Fold mixes in one 64-bit word per field: v = (v^x)*p; v ^= v>>29, p
// the FNV-1a prime. Each round is a bijection of the state for a fixed
// input and injective in the input for a fixed state, so two streams
// that differ in exactly one element always end with different hashes.
type TraceHash uint64

// NewTraceHash returns the hash of the empty stream (the FNV-1a offset
// basis).
func NewTraceHash() TraceHash { return 14695981039346656037 }

// Fold appends one retired instruction to the stream.
func (h *TraceHash) Fold(tid int, rip uint64, op Op) {
	*h = TraceHash(traceMix(traceMix(traceMix(uint64(*h), uint64(tid)), rip), uint64(op)))
}

func traceMix(v, x uint64) uint64 {
	v = (v ^ x) * 1099511628211
	return v ^ v>>29
}
