package obsv

import (
	"sync/atomic"

	"k23/internal/kernel"
)

// Record is one flight-recorder entry: a kernel event plus the monotonic
// sequence number the recorder assigned it. Seq makes ring wraparound
// observable — after the buffer fills, the oldest records are dropped
// first and the snapshot's first Seq reveals the gap.
type Record struct {
	Seq    uint64
	Clock  uint64
	PID    int
	TID    int
	Kind   kernel.EventKind
	Num    uint64
	Site   uint64
	Ret    uint64
	Args   [6]uint64
	Detail string
}

// DefaultRingSize is the flight-recorder capacity when Options.RingSize
// is zero. Power of two (the ring masks, it does not divide).
const DefaultRingSize = 4096

// Recorder is a fixed-size flight recorder of kernel events: a
// single-writer ring buffer that keeps the most recent Cap() events.
//
// Concurrency contract: exactly one goroutine appends (the World's
// simulation goroutine — the fleet's no-shared-state invariant makes
// this free). Readers never block the writer: Snapshot uses per-slot
// sequence marks, seqlock-style, and skips any slot the writer is
// concurrently overwriting. In the usual deployment readers run after
// the machine has quiesced and see every retained record.
type Recorder struct {
	buf   []Record
	marks []atomic.Uint64 // (seq+1)<<1 when slot holds seq; odd while writing
	mask  uint64
	seq   atomic.Uint64 // records ever appended (monotonic)
}

// NewRecorder returns a recorder holding the most recent size events
// (rounded up to a power of two; size <= 0 selects DefaultRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	cap := 1
	for cap < size {
		cap <<= 1
	}
	return &Recorder{
		buf:   make([]Record, cap),
		marks: make([]atomic.Uint64, cap),
		mask:  uint64(cap - 1),
	}
}

// Seq returns the number of events ever appended.
func (r *Recorder) Seq() uint64 { return r.seq.Load() }

// Dropped returns how many of the oldest events the ring has discarded.
func (r *Recorder) Dropped() uint64 {
	s := r.seq.Load()
	if s <= uint64(len(r.buf)) {
		return 0
	}
	return s - uint64(len(r.buf))
}

// Append records one kernel event. Writer-side only; the pointer is
// valid only for the duration of the call.
func (r *Recorder) Append(e *kernel.Event) {
	s := r.seq.Load()
	i := s & r.mask
	r.marks[i].Store(s<<1 | 1) // odd: write in progress
	r.buf[i] = Record{
		Seq:    s,
		Clock:  e.Clock,
		PID:    e.PID,
		TID:    e.TID,
		Kind:   e.Kind,
		Num:    e.Num,
		Site:   e.Site,
		Ret:    e.Ret,
		Args:   e.Args,
		Detail: e.Detail,
	}
	r.marks[i].Store((s + 1) << 1) // even: slot holds seq s
	r.seq.Store(s + 1)
}

// Snapshot returns the retained records in sequence order, oldest first.
// Safe to call from any goroutine; slots the writer is concurrently
// replacing are validated by their marks and re-read or skipped.
func (r *Recorder) Snapshot() []Record {
	end := r.seq.Load()
	start := uint64(0)
	if end > uint64(len(r.buf)) {
		start = end - uint64(len(r.buf))
	}
	out := make([]Record, 0, end-start)
	for s := start; s < end; s++ {
		i := s & r.mask
		for {
			m1 := r.marks[i].Load()
			if m1&1 == 1 {
				continue // mid-write; the writer finishes promptly
			}
			rec := r.buf[i]
			if r.marks[i].Load() != m1 {
				continue // torn read; retry
			}
			if rec.Seq == s {
				out = append(out, rec)
			}
			break // slot overwritten past s: record lost to wraparound
		}
	}
	return out
}
