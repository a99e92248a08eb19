package span

import (
	"encoding/json"
	"fmt"
	"io"

	"k23/internal/canon"
)

// Kind names the span artifact (canon envelope): one "set" record per
// machine, in merge order, followed by that machine's spans.
//
//	{"t":"set","machine":"m0"}
//	{"t":"span","id":1,...}
//
// The encoding is canonical — field order is fixed by the struct
// definitions — so byte equality of two exports is span-set equality,
// which is what the replay-parity test asserts.
const Kind = "spans"

type setRec struct {
	Machine string `json:"machine"`
}

// WriteJSONL writes the sets in deterministic merge order.
func WriteJSONL(w io.Writer, sets ...*Set) error {
	cw := canon.NewWriter(w, Kind, 1)
	for _, s := range Merge(sets) {
		cw.Record("set", &setRec{Machine: s.Machine})
		for _, sp := range s.Spans {
			cw.Record("span", sp)
		}
	}
	return cw.Close()
}

// ReadJSONL parses a span artifact back into per-machine sets; the
// envelope rejects edited, dropped or reordered lines.
func ReadJSONL(r io.Reader) ([]*Set, error) {
	var sets []*Set
	err := canon.Read(r, Kind, 1, func(tag string, line []byte) error {
		switch tag {
		case "set":
			var h setRec
			if err := json.Unmarshal(line, &h); err != nil {
				return err
			}
			sets = append(sets, &Set{Machine: h.Machine})
		case "span":
			if len(sets) == 0 {
				return fmt.Errorf("span before its set record")
			}
			cur := sets[len(sets)-1]
			sp := &Span{Machine: cur.Machine}
			if err := json.Unmarshal(line, sp); err != nil {
				return err
			}
			cur.Spans = append(cur.Spans, sp)
		default:
			return fmt.Errorf("unknown record type %q", tag)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// ---------------------------------------------------------------------
// Chrome/Perfetto trace_event export
// ---------------------------------------------------------------------

// perfettoEvent is one trace_event record. Timestamps use the owning
// thread's cycle account (per-track monotone; the global virtual clock
// does not advance during charged kernel work, so clock-based durations
// would collapse to zero). Cause edges become flow events.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  string         `json:"pid"`
	TID  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func spanDisplayName(sp *Span) string {
	name := sp.Name
	if name == "" {
		name = fmt.Sprintf("%s:%d", sp.Kind, sp.Num)
	}
	if sp.Kind == KindHandler && sp.Mech != "" {
		name = sp.Mech + ":" + name
	}
	return name
}

// WritePerfetto renders the sets as a Chrome trace_event JSON document
// loadable by Perfetto/chrome://tracing. One process track per
// (machine, pid); spans are complete ("X") events, phase slices nest
// inside them, and cause edges are flow ("s"/"f") pairs.
func WritePerfetto(w io.Writer, sets ...*Set) error {
	var evs []perfettoEvent
	for _, s := range Merge(sets) {
		for _, sp := range s.Spans {
			track := fmt.Sprintf("%s/p%d", s.Machine, sp.PID)
			args := map[string]any{
				"id":   sp.ID,
				"kind": sp.Kind,
				"num":  sp.Num,
				"site": fmt.Sprintf("%#x", sp.Site),
			}
			if sp.Mech != "" {
				args["mech"] = sp.Mech
			}
			if sp.HasRet {
				args["ret"] = int64(sp.Ret)
			}
			if sp.Blocked {
				args["blocked"] = true
				args["wake"] = sp.WakeReason
			}
			if sp.Chaos != "" {
				args["chaos"] = sp.Chaos
			}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			dur := sp.Y1 - sp.Y0
			if dur == 0 {
				dur = 1 // zero-width spans are invisible in the UI
			}
			evs = append(evs, perfettoEvent{
				Name: spanDisplayName(sp), Cat: sp.Kind, Ph: "X",
				TS: sp.Y0, Dur: dur, PID: track, TID: sp.TID, Args: args,
			})
			for _, sl := range sp.Slices {
				if sl.Y1 == sl.Y0 {
					continue
				}
				evs = append(evs, perfettoEvent{
					Name: sl.Phase, Cat: "phase", Ph: "X",
					TS: sl.Y0, Dur: sl.Y1 - sl.Y0, PID: track, TID: sp.TID,
				})
			}
			if sp.Cause != 0 {
				// Flow from the cause span's end to this span's start.
				cause := findSpan(s, sp.Cause)
				if cause != nil {
					evs = append(evs, perfettoEvent{
						Name: sp.CauseKind, Cat: "cause", Ph: "s",
						TS: cause.Y1, PID: track, TID: cause.TID, ID: sp.ID,
					})
					evs = append(evs, perfettoEvent{
						Name: sp.CauseKind, Cat: "cause", Ph: "f", BP: "e",
						TS: sp.Y0, PID: track, TID: sp.TID, ID: sp.ID,
					})
				}
			}
		}
	}
	doc := struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
		Meta        map[string]any  `json:"otherData"`
	}{
		TraceEvents: evs,
		Meta:        map[string]any{"clock": "virtual-cycles"},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// findSpan locates a span by ID inside one set (IDs are sorted).
func findSpan(s *Set, id uint64) *Span {
	lo, hi := 0, len(s.Spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.Spans[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Spans) && s.Spans[lo].ID == id {
		return s.Spans[lo]
	}
	return nil
}
