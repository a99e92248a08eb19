package rr

import (
	"encoding/json"
	"fmt"
	"io"

	"k23/internal/canon"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// FormatVersion is the recording schema version (3: trace hashes are
// cpu.TraceHash); ReadJSONL rejects recordings of another version.
const FormatVersion = 3

// EventRec is one recorded kernel event. It carries the syscall
// arguments (EvEnter only), so the recorded stream shows what each call
// was passed.
type EventRec struct {
	Seq    uint64   `json:"seq"`
	PID    int      `json:"pid"`
	TID    int      `json:"tid"`
	Kind   string   `json:"kind"`
	Num    uint64   `json:"num"`
	Site   uint64   `json:"site,omitempty"`
	Ret    uint64   `json:"ret,omitempty"`
	Clock  uint64   `json:"clock"`
	Args   []uint64 `json:"args,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// eventStreamHash recomputes the run's event hash over a stored stream
// (machine.Hash.Event per event), so Validate detects edited event
// lines.
func eventStreamHash(events []EventRec) uint64 {
	h := machine.NewHash()
	for i := range events {
		e := &events[i]
		h.Event(e.PID, e.TID, e.Kind, e.Num, e.Site, e.Ret, e.Detail)
	}
	return uint64(h)
}

// CkptMeta describes one checkpoint: where it sits in the run (event
// ordinal, virtual clock, retired instructions) and the resumable hash
// states at that point. The delta-page counters are the checkpoint
// space metric (EXPERIMENTS.md E19).
type CkptMeta struct {
	Index       int    `json:"index"`
	Seq         uint64 `json:"seq"`
	VClock      uint64 `json:"vclock"`
	Steps       uint64 `json:"steps"`
	Events      int    `json:"events"`
	TraceHash   uint64 `json:"trace_hash"`
	EventHash   uint64 `json:"event_hash"`
	PagesCopied int    `json:"pages_copied"`
	PagesShared int    `json:"pages_shared"`
}

// Final is the observable outcome of the run — the replay-equivalence
// comparison surface.
type Final struct {
	TraceHash     uint64 `json:"trace_hash"`
	EventHash     uint64 `json:"event_hash"`
	VFSHash       uint64 `json:"vfs_hash"`
	Steps         uint64 `json:"steps"`
	Syscalls      uint64 `json:"syscalls"`
	Events        int    `json:"events"`
	Seq           uint64 `json:"seq"`
	ExitCode      int    `json:"exit_code"`
	ExitSignal    int    `json:"exit_signal,omitempty"`
	ChaosInjected uint64 `json:"chaos_injected,omitempty"`
	StdoutDigest  uint64 `json:"stdout_digest"`
	StderrDigest  uint64 `json:"stderr_digest"`
}

// Recording is one run's nondeterminism frontier plus its observable
// trace: the spec and the derived frontier values (initial clock,
// payload, chaos decisions), the full kernel event stream, the
// checkpoint metadata, and the final hashes.
type Recording struct {
	Spec          RunSpec
	VClock0       uint64
	Payload       string
	PayloadDigest uint64
	Chaos         []kernel.ChaosDecision
	Events        []EventRec
	Checkpoints   []CkptMeta
	Final         Final
}

// Kind names the recording artifact (canon envelope).
const Kind = "rr"

// specRec is the recording's first record: the spec and the derived
// frontier values.
type specRec struct {
	Spec          RunSpec `json:"spec"`
	VClock0       uint64  `json:"vclock0,omitempty"`
	Payload       string  `json:"payload,omitempty"`
	PayloadDigest uint64  `json:"payload_digest,omitempty"`
}

// WriteJSONL serializes the recording as a canon artifact: the spec
// record, then every chaos decision, event, and checkpoint in stream
// order, then the final record.
func (r *Recording) WriteJSONL(w io.Writer) error {
	cw := canon.NewWriter(w, Kind, FormatVersion)
	cw.Record("spec", &specRec{Spec: r.Spec, VClock0: r.VClock0, Payload: r.Payload, PayloadDigest: r.PayloadDigest})
	for i := range r.Chaos {
		cw.Record("chaos", &r.Chaos[i])
	}
	for i := range r.Events {
		cw.Record("event", &r.Events[i])
	}
	for i := range r.Checkpoints {
		cw.Record("ckpt", &r.Checkpoints[i])
	}
	cw.Record("final", &r.Final)
	return cw.Close()
}

// ReadJSONL parses and validates a recording. Each line is decoded
// once, straight into its place in the recording.
func ReadJSONL(rd io.Reader) (*Recording, error) {
	rec := &Recording{}
	sawSpec, sawFinal := false, false
	err := canon.Read(rd, Kind, FormatVersion, func(tag string, line []byte) error {
		if sawSpec == (tag == "spec") || sawFinal {
			return fmt.Errorf("%s record out of place (spec first, final last)", tag)
		}
		var v any
		switch tag {
		case "spec":
			sp := &specRec{}
			if err := json.Unmarshal(line, sp); err != nil {
				return err
			}
			rec.Spec, rec.VClock0, rec.Payload, rec.PayloadDigest = sp.Spec, sp.VClock0, sp.Payload, sp.PayloadDigest
			sawSpec = true
			return nil
		case "chaos":
			rec.Chaos = append(rec.Chaos, kernel.ChaosDecision{})
			v = &rec.Chaos[len(rec.Chaos)-1]
		case "event":
			rec.Events = append(rec.Events, EventRec{})
			v = &rec.Events[len(rec.Events)-1]
		case "ckpt":
			rec.Checkpoints = append(rec.Checkpoints, CkptMeta{})
			v = &rec.Checkpoints[len(rec.Checkpoints)-1]
		case "final":
			v, sawFinal = &rec.Final, true
		default:
			return fmt.Errorf("unknown record type %q", tag)
		}
		return json.Unmarshal(line, v)
	})
	if err == nil && !sawFinal {
		err = fmt.Errorf("rr: missing final record")
	}
	if err == nil {
		err = rec.Validate()
	}
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// Validate checks the recording's internal consistency: monotone event
// ordinals, ordered checkpoints within the event range, a monotone
// chaos query stream, a payload matching its digest, and an event
// stream that re-hashes to the recorded final event hash (so edited
// event lines are rejected without any re-execution). ReadJSONL, and so
// obsvcheck, runs exactly this.
func (r *Recording) Validate() error {
	if r.Payload != "" && canon.Digest([]byte(r.Payload)) != r.PayloadDigest {
		return fmt.Errorf("rr: payload digest mismatch (corrupted payload)")
	}
	for i := 1; i < len(r.Events); i++ {
		if r.Events[i].Seq <= r.Events[i-1].Seq {
			return fmt.Errorf("rr: event %d: seq %d not after %d", i, r.Events[i].Seq, r.Events[i-1].Seq)
		}
	}
	for i := range r.Events {
		if _, ok := kernel.EventKindByName(r.Events[i].Kind); !ok {
			return fmt.Errorf("rr: event %d: unknown kind %q", i, r.Events[i].Kind)
		}
	}
	for i := range r.Checkpoints {
		c := &r.Checkpoints[i]
		if c.Index != i {
			return fmt.Errorf("rr: checkpoint %d: index %d out of order", i, c.Index)
		}
		if i > 0 {
			prev := &r.Checkpoints[i-1]
			if c.Seq < prev.Seq || c.Steps < prev.Steps || c.VClock < prev.VClock {
				return fmt.Errorf("rr: checkpoint %d: position regresses", i)
			}
		}
		if c.Events > len(r.Events) {
			return fmt.Errorf("rr: checkpoint %d: event count %d exceeds stream length %d", i, c.Events, len(r.Events))
		}
	}
	for i := 1; i < len(r.Chaos); i++ {
		if r.Chaos[i].Q <= r.Chaos[i-1].Q {
			return fmt.Errorf("rr: chaos decision %d: query ordinal %d not after %d", i, r.Chaos[i].Q, r.Chaos[i-1].Q)
		}
	}
	if r.Final.Events != len(r.Events) {
		return fmt.Errorf("rr: final records %d events, stream has %d", r.Final.Events, len(r.Events))
	}
	if h := eventStreamHash(r.Events); h != r.Final.EventHash {
		return fmt.Errorf("rr: event stream hashes to %#x but final records %#x (edited event lines?)", h, r.Final.EventHash)
	}
	return nil
}

// EquivalentTo compares two recordings' observable outcomes and
// checkpoint trajectories, returning a description of the first
// difference, or nil when replay-equivalent.
func (r *Recording) EquivalentTo(o *Recording) error {
	n := len(r.Checkpoints)
	if len(o.Checkpoints) < n {
		n = len(o.Checkpoints)
	}
	for i := 0; i < n; i++ {
		a, b := &r.Checkpoints[i], &o.Checkpoints[i]
		if *a != *b {
			return fmt.Errorf("rr: checkpoint %d diverges: %+v vs %+v", i, *a, *b)
		}
	}
	if len(r.Checkpoints) != len(o.Checkpoints) {
		return fmt.Errorf("rr: checkpoint count %d vs %d", len(r.Checkpoints), len(o.Checkpoints))
	}
	if r.Final != o.Final {
		return fmt.Errorf("rr: final state diverges: %+v vs %+v", r.Final, o.Final)
	}
	return nil
}
