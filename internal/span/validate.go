package span

import (
	"fmt"
	"io"

	"k23/internal/kernel"
)

// ValidationReport summarizes a schema check of a span JSONL stream.
type ValidationReport struct {
	Machines int
	Spans    int
	Slices   int
	Problems []string
}

// Ok reports whether the stream validated cleanly.
func (r *ValidationReport) Ok() bool { return len(r.Problems) == 0 }

func (r *ValidationReport) addf(format string, args ...any) {
	if len(r.Problems) < 64 { // cap: a corrupt file should not OOM the checker
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// validKinds is the closed span-kind vocabulary.
var validKinds = map[string]bool{KindSyscall: true, KindHandler: true, KindSignal: true}

// validCauses is the closed cause-edge vocabulary.
var validCauses = map[string]bool{
	CauseRestart: true, CauseEINTR: true, CauseBlock: true,
	CauseForward: true, CauseClone: true,
}

// ValidateJSONL parses and schema-checks a span JSONL stream:
//
//   - span IDs strictly increasing within each machine set
//   - parents exist, precede their children, and contain them on both
//     timelines (clock and the shared thread cycle account)
//   - cause edges reference earlier spans with a known edge kind
//   - slices use known phase names, stay within the span's bounds, and
//     advance monotonically on both timelines
//   - blocked spans carry a wake reason; wake clocks are ≥ the close clock
func ValidateJSONL(r io.Reader) (*ValidationReport, error) {
	sets, err := ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return validateSets(sets), nil
}

// validateSets runs the checks on in-memory sets.
func validateSets(sets []*Set) *ValidationReport {
	rep := &ValidationReport{Machines: len(sets)}
	for _, s := range sets {
		validateSet(s, rep)
	}
	return rep
}

func validateSet(s *Set, rep *ValidationReport) {
	byID := make(map[uint64]*Span, len(s.Spans))
	var lastID uint64
	for _, sp := range s.Spans {
		rep.Spans++
		m := s.Machine
		if sp.ID <= lastID {
			rep.addf("%s: span %d: id not strictly increasing (prev %d)", m, sp.ID, lastID)
		}
		lastID = sp.ID
		byID[sp.ID] = sp

		if !validKinds[sp.Kind] {
			rep.addf("%s: span %d: unknown kind %q", m, sp.ID, sp.Kind)
		}
		if sp.C1 < sp.C0 || sp.Y1 < sp.Y0 {
			rep.addf("%s: span %d: negative duration (c %d..%d, y %d..%d)",
				m, sp.ID, sp.C0, sp.C1, sp.Y0, sp.Y1)
		}
		if sp.Parent != 0 {
			par, ok := byID[sp.Parent]
			switch {
			case !ok:
				rep.addf("%s: span %d: dangling parent %d", m, sp.ID, sp.Parent)
			case par.TID != sp.TID:
				rep.addf("%s: span %d: parent %d on different thread", m, sp.ID, sp.Parent)
			case sp.C0 < par.C0 || sp.C1 > par.C1 || sp.Y0 < par.Y0 || sp.Y1 > par.Y1:
				rep.addf("%s: span %d: escapes parent %d bounds", m, sp.ID, sp.Parent)
			}
		}
		if sp.Cause != 0 {
			if _, ok := byID[sp.Cause]; !ok {
				rep.addf("%s: span %d: dangling cause %d", m, sp.ID, sp.Cause)
			}
			if !validCauses[sp.CauseKind] {
				rep.addf("%s: span %d: unknown cause kind %q", m, sp.ID, sp.CauseKind)
			}
		} else if sp.CauseKind != "" {
			rep.addf("%s: span %d: cause kind %q without cause id", m, sp.ID, sp.CauseKind)
		}
		if sp.Blocked && sp.WakeReason == "" {
			rep.addf("%s: span %d: blocked without wake reason", m, sp.ID)
		}
		if sp.WakeClock != 0 && sp.WakeClock < sp.C1 {
			rep.addf("%s: span %d: wake clock %d before close %d", m, sp.ID, sp.WakeClock, sp.C1)
		}

		var pc, py uint64 = sp.C0, sp.Y0
		for i, sl := range sp.Slices {
			rep.Slices++
			if _, ok := kernel.PhaseByName(sl.Phase); !ok {
				rep.addf("%s: span %d slice %d: unknown phase %q", m, sp.ID, i, sl.Phase)
			}
			if sl.C0 < pc || sl.C1 < sl.C0 || sl.Y0 < py || sl.Y1 < sl.Y0 {
				rep.addf("%s: span %d slice %d: timestamps not monotone", m, sp.ID, i)
			}
			if sl.C1 > sp.C1 || sl.Y1 > sp.Y1 {
				rep.addf("%s: span %d slice %d: escapes span bounds", m, sp.ID, i)
			}
			pc, py = sl.C1, sl.Y1
		}
	}
}
