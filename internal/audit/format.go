package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"k23/internal/canon"
)

// Kind names the audit artifact (canon envelope). Its record tags:
//
//	summary  — the Totals block (exactly one per report)
//	coverage — one coverage-matrix cell
//	escape   — one (category, syscall) escape cell
//	ledger   — one proof-carrying escape with its trace excerpt
//	proc     — one per-process join summary
//	window   — one virtual-clock window tally
//	guardmem — one guard-structure footprint
const (
	Kind        = "audit"
	RecSummary  = "summary"
	RecCoverage = "coverage"
	RecEscape   = "escape"
	RecLedger   = "ledger"
	RecProc     = "proc"
	RecWindow   = "window"
	RecGuardMem = "guardmem"
)

// WriteJSONL renders the snapshot as an audit artifact: the summary
// first, then coverage, escapes, ledger, procs, windows and guard-mem
// records in their (sorted, deterministic) snapshot order.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	cw := canon.NewWriter(w, Kind, 1)
	cw.Record(RecSummary, &s.Totals)
	for i := range s.Coverage {
		cw.Record(RecCoverage, &s.Coverage[i])
	}
	for i := range s.Escapes {
		cw.Record(RecEscape, &s.Escapes[i])
	}
	for i := range s.Ledger {
		cw.Record(RecLedger, &s.Ledger[i])
	}
	for i := range s.Procs {
		cw.Record(RecProc, &s.Procs[i])
	}
	for i := range s.Windows {
		cw.Record(RecWindow, &s.Windows[i])
	}
	for i := range s.GuardMem {
		cw.Record(RecGuardMem, &s.GuardMem[i])
	}
	return cw.Close()
}

// required lists the fields each record type must carry.
var required = map[string][]string{
	RecCoverage: {"nr", "name", "mechanism", "count"},
	RecEscape:   {"category", "nr", "name", "count"},
	RecLedger:   {"category", "pid", "nr", "name", "clock", "excerpt"},
	RecProc:     {"pid", "oracles", "claims", "ttfc"},
	RecWindow:   {"index", "oracles"},
	RecGuardMem: {"kind", "max_reserved_bytes", "max_resident_bytes"},
}

// ValidateJSONL checks an audit artifact: known record types, required
// fields present per type, exactly one summary, and the summary's
// escape total matching the sum of the escape records. Returns the
// number of records.
func ValidateJSONL(r io.Reader) (int, error) {
	records, summaries := 0, 0
	var summaryEscaped, escapeSum uint64
	sawEscapeRecord := false
	err := canon.Read(r, Kind, 1, func(typ string, line []byte) error {
		records++
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(line, &raw); err != nil {
			return err
		}
		if typ != RecSummary && required[typ] == nil {
			return fmt.Errorf("unknown record type %q", typ)
		}
		for _, k := range required[typ] {
			if _, ok := raw[k]; !ok {
				return fmt.Errorf("%s record missing %q field", typ, k)
			}
		}
		switch typ {
		case RecSummary:
			summaries++
			var t Totals
			if err := json.Unmarshal(line, &t); err != nil {
				return fmt.Errorf("bad summary: %v", err)
			}
			summaryEscaped = t.Escaped
		case RecEscape:
			var e EscapeStat
			if err := json.Unmarshal(line, &e); err != nil {
				return fmt.Errorf("bad escape: %v", err)
			}
			if !validCategory(e.Category) {
				return fmt.Errorf("unknown escape category %q", e.Category)
			}
			escapeSum += e.Count
			sawEscapeRecord = true
		case RecLedger:
			var l LedgerEntry
			if err := json.Unmarshal(line, &l); err != nil {
				return fmt.Errorf("bad ledger entry: %v", err)
			}
			if !validCategory(l.Category) {
				return fmt.Errorf("unknown escape category %q", l.Category)
			}
			if len(l.Excerpt) == 0 {
				return fmt.Errorf("ledger entry carries no excerpt")
			}
		}
		return nil
	})
	if err != nil {
		return records, err
	}
	if summaries != 1 {
		return records, fmt.Errorf("audit: expected exactly one summary record, found %d", summaries)
	}
	if sawEscapeRecord && summaryEscaped != escapeSum {
		return records, fmt.Errorf("audit: summary escaped=%d but escape records sum to %d", summaryEscaped, escapeSum)
	}
	return records, nil
}

func validCategory(c string) bool {
	switch c {
	case EscStartup, EscSignal, EscCloneChild, EscPostCoverage:
		return true
	}
	return false
}

// Format renders the snapshot as a human-readable audit report.
func (s *Snapshot) Format(w io.Writer) {
	t := &s.Totals
	fmt.Fprintf(w, "audit: %d executed, %d covered (%d emulated), %d escaped, %d internal, %d signal-infra\n",
		t.Oracles, t.Covered, t.Emulated, t.Escaped, t.Internal, t.SignalInfra)
	if t.Retries+t.DoubleInterposition+t.Misattributed+t.Unresolved != 0 {
		fmt.Fprintf(w, "       %d retries, %d double-interposed, %d misattributed, %d unresolved\n",
			t.Retries, t.DoubleInterposition, t.Misattributed, t.Unresolved)
	}
	if t.RewritesGenuine+t.RewritesMisidentified != 0 {
		fmt.Fprintf(w, "       rewrites: %d genuine, %d misidentified, %d perm-clobbers\n",
			t.RewritesGenuine, t.RewritesMisidentified, t.PermClobbers)
	}
	if t.VdsoMapped+t.VdsoDisabled != 0 {
		fmt.Fprintf(w, "       vdso: %d image(s) mapped, %d disabled\n", t.VdsoMapped, t.VdsoDisabled)
	}
	if t.SignalDeaths+t.StaleFetches != 0 {
		fmt.Fprintf(w, "       %d signal death(s), %d stale fetch(es)\n", t.SignalDeaths, t.StaleFetches)
	}
	if t.UnknownSyscalls != 0 {
		fmt.Fprintf(w, "       %d unknown syscall(s) rejected with ENOSYS\n", t.UnknownSyscalls)
	}

	if len(s.Procs) > 0 {
		fmt.Fprintf(w, "\nper-process time-to-first-coverage (executed syscalls before the first claim):\n")
		for i := range s.Procs {
			p := &s.Procs[i]
			vdso := p.Vdso
			if vdso == "" {
				vdso = "-"
			}
			fmt.Fprintf(w, "  pid %-4d ttfc=%-5d oracles=%-6d claims=%-6d vdso=%-8s exit=%d/%d\n",
				p.PID, p.TTFC, p.Oracles, p.Claims, vdso, p.ExitCode, p.ExitSignal)
		}
	}

	if len(s.Coverage) > 0 {
		fmt.Fprintf(w, "\ncoverage matrix (syscall x mechanism):\n")
		byMech := map[string][]CoverageCell{}
		for _, c := range s.Coverage {
			byMech[c.Mech] = append(byMech[c.Mech], c)
		}
		for _, mech := range sortedKeys(byMech) {
			var n uint64
			for _, c := range byMech[mech] {
				n += c.Count
			}
			fmt.Fprintf(w, "  %-8s %6d calls over %d syscalls\n", mech, n, len(byMech[mech]))
		}
	}

	if len(s.Escapes) > 0 {
		fmt.Fprintf(w, "\nescapes by pitfall category:\n")
		byCat := map[string][]EscapeStat{}
		for _, e := range s.Escapes {
			byCat[e.Category] = append(byCat[e.Category], e)
		}
		for _, cat := range sortedKeys(byCat) {
			cells := byCat[cat]
			var n uint64
			names := make([]string, 0, len(cells))
			for _, e := range cells {
				n += e.Count
				names = append(names, fmt.Sprintf("%s x%d", e.Name, e.Count))
			}
			sort.Strings(names)
			fmt.Fprintf(w, "  %-14s %6d  (%s)\n", cat, n, joinMax(names, 6))
		}
	}

	if len(s.Ledger) > 0 {
		fmt.Fprintf(w, "\nescape ledger (first %d per category, with proof excerpt):\n", MaxLedgerPerCategory)
		for i := range s.Ledger {
			l := &s.Ledger[i]
			fmt.Fprintf(w, "  [%s] pid %d tid %d %s at site %#x, clock %d\n",
				l.Category, l.PID, l.TID, l.Name, l.Site, l.Clock)
			tail := l.Excerpt
			if len(tail) > 4 {
				tail = tail[len(tail)-4:]
			}
			for _, line := range tail {
				fmt.Fprintf(w, "      | %s\n", line)
			}
		}
	}
}

func joinMax(parts []string, max int) string {
	if len(parts) > max {
		rest := len(parts) - max
		parts = append(parts[:max:max], fmt.Sprintf("+%d more", rest))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
