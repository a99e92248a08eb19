package obsv

import (
	"encoding/json"
	"fmt"
	"io"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// ValidateJSONL checks a flight-recorder trace artifact against the
// trace schema and returns the number of valid records. Per machine
// section (a "ring" record, machines unique) it enforces:
//
//   - every record carries seq, clock, pid, tid, kind
//   - kind is a known event kind name
//   - the first record's seq equals the ring's declared dropped count
//   - seq is strictly increasing (gaps are legal — ring wraparound
//     drops oldest records — but reordering and duplicates are not)
//   - clock is non-decreasing
//   - "enter" records carry name and args; "exit" records carry name
//     and ret; "oracle" records a known origin
//
// The first violation is returned with its line number.
func ValidateJSONL(r io.Reader) (int, error) {
	count := 0
	var ring *ringRec
	var last *jsonRecord
	seen := make(map[string]bool)
	err := canon.Read(r, Kind, 1, func(tag string, line []byte) error {
		if tag == "ring" {
			ring, last = &ringRec{}, nil
			if err := json.Unmarshal(line, ring); err != nil {
				return err
			}
			if seen[ring.Machine] {
				return fmt.Errorf("duplicate ring for machine %q", ring.Machine)
			}
			seen[ring.Machine] = true
			return nil
		}
		if tag != "event" || ring == nil {
			return fmt.Errorf("%s record outside a ring", tag)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		for _, req := range []string{"seq", "clock", "pid", "tid", "kind"} {
			if _, ok := m[req]; !ok {
				return fmt.Errorf("missing required field %q", req)
			}
		}
		rec := &jsonRecord{}
		if err := json.Unmarshal(line, rec); err != nil {
			return fmt.Errorf("bad field types: %v", err)
		}
		kind, ok := kernel.EventKindByName(rec.Kind)
		if !ok {
			return fmt.Errorf("unknown event kind %q", rec.Kind)
		}
		switch {
		case last == nil && rec.Seq != ring.Dropped:
			// First retained record: its seq IS the drop count.
			return fmt.Errorf("ring declares %d dropped events but first retained seq is %d", ring.Dropped, rec.Seq)
		case last != nil && rec.Seq <= last.Seq:
			return fmt.Errorf("seq %d not after previous %d", rec.Seq, last.Seq)
		case last != nil && rec.Clock < last.Clock:
			return fmt.Errorf("clock %d before previous %d", rec.Clock, last.Clock)
		}
		last = rec
		switch kind {
		case kernel.EvEnter:
			if rec.Name == "" || m["args"] == nil {
				return fmt.Errorf("enter record missing name or args")
			}
		case kernel.EvExit:
			if rec.Name == "" || rec.Ret == nil {
				return fmt.Errorf("exit record missing name or ret")
			}
		case kernel.EvOracle:
			if rec.Name == "" {
				return fmt.Errorf("oracle record missing name")
			}
			if rec.Detail != "trap" && rec.Detail != "direct" && rec.Detail != "hostcall" {
				return fmt.Errorf("oracle record has origin %q, want trap|direct|hostcall", rec.Detail)
			}
		}
		count++
		return nil
	})
	return count, err
}
