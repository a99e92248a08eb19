package sfip

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// Mode selects the enforcement posture (paper-style deployment ladder:
// observe first, then deny).
type Mode int

const (
	// ModeOff disables all checking: the kernel hook costs one nil /
	// mode comparison and nothing else.
	ModeOff Mode = iota
	// ModeLog checks every trap-origin syscall and emits violation
	// events, but allows the call and charges no cycles — the trace is
	// byte-identical to an unpoliced run unless a violation fires.
	ModeLog
	// ModeEnforce denies violating calls with EPERM and charges the
	// per-check cost (CostModel.SfipCheck) on the hot path.
	ModeEnforce
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeLog:
		return "log"
	case ModeEnforce:
		return "enforce"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the CLI spelling of a mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return ModeOff, nil
	case "log":
		return ModeLog, nil
	case "enforce":
		return ModeEnforce, nil
	}
	return ModeOff, fmt.Errorf("sfip: unknown mode %q (want off, log or enforce)", s)
}

// Violation categories (the Detail of an EvSfipViolation event starts
// with its category token).
const (
	CatUnknownOrigin = "unknown-origin"
	CatUnknownEdge   = "unknown-edge"
)

// MaxLedgerPerCategory bounds the proof-carrying violation ledger per
// category (mirroring audit.MaxLedgerPerCategory); the violation
// counters are unbounded.
const MaxLedgerPerCategory = 4

// Violation is one ledgered policy violation, mirroring
// audit.LedgerEntry: Seq lets `k23 -replay -until` jump the replay
// directly to the violating call.
type Violation struct {
	Category string `json:"category"`
	PID      int    `json:"pid"`
	TID      int    `json:"tid"`
	Nr       uint64 `json:"nr"`
	Name     string `json:"name"`
	Site     uint64 `json:"site"`
	Clock    uint64 `json:"clock"`
	Seq      uint64 `json:"seq"`
	Detail   string `json:"detail"`
}

// Enforcer checks trap-origin syscalls against a learned Policy. It
// implements kernel.SfipHook; install it with kernel.Kernel.Sfip and
// subscribe HandleEvent with kernel.Kernel.OnEvent so violations are
// Seq-stamped into the ledger. All state is per-kernel and deterministic: the rr
// engine snapshots/restores it through the SfipHook host-state methods,
// and HashState folds it into the kernel StateHash.
type Enforcer struct {
	policy *Policy
	mode   Mode

	last   map[threadKey]int64
	perCat map[string]int

	checked    uint64
	violations uint64
	denied     uint64
	ledger     []Violation
}

var _ kernel.SfipHook = (*Enforcer)(nil)

// NewEnforcer returns an enforcer for policy in the given mode.
func NewEnforcer(policy *Policy, mode Mode) *Enforcer {
	return &Enforcer{
		policy: policy,
		mode:   mode,
		last:   make(map[threadKey]int64),
		perCat: make(map[string]int),
	}
}

// Mode returns the enforcement posture.
func (e *Enforcer) Mode() Mode { return e.mode }

// Policy returns the policy under enforcement.
func (e *Enforcer) Policy() *Policy { return e.policy }

// Check validates one trap-origin syscall entry against the policy.
// The returned violation string is empty when the call is allowed;
// deny is true only in enforce mode. Called by the kernel before the
// syscall body runs; a blocked-then-restarted call re-enters with the
// same predecessor because Commit only runs on completion.
func (e *Enforcer) Check(pid, tid int, nr, site uint64) (violation string, deny bool) {
	if e.mode == ModeOff {
		return "", false
	}
	e.checked++
	if !e.policy.AllowedOrigin(nr, site) {
		violation = fmt.Sprintf("%s %s at site %#x", CatUnknownOrigin, kernel.SyscallName(nr), site)
	} else {
		key := threadKey{pid, tid}
		from, seen := e.last[key]
		if !seen {
			from = FirstCall
		}
		if !e.policy.AllowedEdge(from, nr) {
			fromName := "start"
			if from >= 0 {
				fromName = kernel.SyscallName(uint64(from))
			}
			violation = fmt.Sprintf("%s %s -> %s", CatUnknownEdge, fromName, kernel.SyscallName(nr))
		}
	}
	if violation == "" {
		return "", false
	}
	e.violations++
	if e.mode == ModeEnforce {
		e.denied++
		return violation, true
	}
	return violation, false
}

// Commit advances the thread's predecessor after a trap-origin syscall
// completes (including EINTR-aborted blocked calls). Denied calls never
// Commit: the predecessor chain tracks calls that actually executed.
func (e *Enforcer) Commit(pid, tid int, nr uint64) {
	if e.mode == ModeOff {
		return
	}
	e.last[threadKey{pid, tid}] = int64(nr)
}

// Enforcing reports whether violations are denied (and the per-check
// cost charged).
func (e *Enforcer) Enforcing() bool { return e.mode == ModeEnforce }

// HandleEvent consumes EvSfipViolation events off the kernel's event
// stream to build the Seq-stamped violation ledger. Subscribe it with
// kernel.Kernel.OnEvent.
func (e *Enforcer) HandleEvent(ev *kernel.Event) {
	if ev.Kind != kernel.EvSfipViolation {
		return
	}
	cat := ev.Detail
	if i := strings.IndexByte(cat, ' '); i >= 0 {
		cat = cat[:i]
	}
	if e.perCat[cat] >= MaxLedgerPerCategory {
		return
	}
	e.perCat[cat]++
	e.ledger = append(e.ledger, Violation{
		Category: cat,
		PID:      ev.PID,
		TID:      ev.TID,
		Nr:       ev.Num,
		Name:     kernel.SyscallName(ev.Num),
		Site:     ev.Site,
		Clock:    ev.Clock,
		Seq:      ev.Seq,
		Detail:   ev.Detail,
	})
}

// enfState is the frozen host-side state an rr checkpoint captures.
type enfState struct {
	last       map[threadKey]int64
	perCat     map[string]int
	checked    uint64
	violations uint64
	denied     uint64
	ledger     []Violation
}

// SnapshotHostState freezes the enforcer's mutable state for an rr
// checkpoint.
func (e *Enforcer) SnapshotHostState() any {
	s := &enfState{
		last:       make(map[threadKey]int64, len(e.last)),
		perCat:     make(map[string]int, len(e.perCat)),
		checked:    e.checked,
		violations: e.violations,
		denied:     e.denied,
		ledger:     append([]Violation(nil), e.ledger...),
	}
	for k, v := range e.last {
		s.last[k] = v
	}
	for k, v := range e.perCat {
		s.perCat[k] = v
	}
	return s
}

// RestoreHostState reinstates a snapshot taken by SnapshotHostState.
func (e *Enforcer) RestoreHostState(v any) {
	s, ok := v.(*enfState)
	if !ok {
		return
	}
	e.last = make(map[threadKey]int64, len(s.last))
	for k, val := range s.last {
		e.last[k] = val
	}
	e.perCat = make(map[string]int, len(s.perCat))
	for k, val := range s.perCat {
		e.perCat[k] = val
	}
	e.checked, e.violations, e.denied = s.checked, s.violations, s.denied
	e.ledger = append([]Violation(nil), s.ledger...)
}

// HashState digests the enforcer's mutable state (sorted; map order
// cannot leak in) for the kernel StateHash — replay divergence in the
// predecessor chains or counters surfaces as a hash mismatch.
func (e *Enforcer) HashState() uint64 {
	h := canon.NewHash()
	fmt.Fprintf(&h, "sfip-enf %d %d %d %d\n", e.mode, e.checked, e.violations, e.denied)
	keys := make([]threadKey, 0, len(e.last))
	for k := range e.last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	for _, k := range keys {
		fmt.Fprintf(&h, "t %d/%d %d\n", k.pid, k.tid, e.last[k])
	}
	for i := range e.ledger {
		l := &e.ledger[i]
		fmt.Fprintf(&h, "v %s %d/%d %d %#x %d %d\n", l.Category, l.PID, l.TID, l.Nr, l.Site, l.Clock, l.Seq)
	}
	return uint64(h)
}

// Report is the frozen, mergeable enforcement summary.
type Report struct {
	Mode       string      `json:"mode"`
	App        string      `json:"app"`
	Mech       string      `json:"mech"`
	Checked    uint64      `json:"checked"`
	Violations uint64      `json:"violations"`
	Denied     uint64      `json:"denied"`
	Ledger     []Violation `json:"-"`
}

// Report freezes the enforcer's counters and ledger.
func (e *Enforcer) Report() *Report {
	return &Report{
		Mode:       e.mode.String(),
		App:        e.policy.App,
		Mech:       e.policy.Mech,
		Checked:    e.checked,
		Violations: e.violations,
		Denied:     e.denied,
		Ledger:     append([]Violation(nil), e.ledger...),
	}
}

// Merge folds other into r (fleet aggregation): counters add, ledgers
// concatenate in machine order.
func (r *Report) Merge(other *Report) {
	if other == nil {
		return
	}
	if r.Mode == "" {
		r.Mode, r.App, r.Mech = other.Mode, other.App, other.Mech
	}
	r.Checked += other.Checked
	r.Violations += other.Violations
	r.Denied += other.Denied
	r.Ledger = append(r.Ledger, other.Ledger...)
}

// ReportKind names the enforcement-report artifact (canon envelope):
// one summary record, then the ledgered violations in event order.
const (
	ReportKind   = "sfip-report"
	RecSummary   = "summary"
	RecViolation = "violation"
)

// WriteJSONL renders the report as an enforcement-report artifact.
func (r *Report) WriteJSONL(w io.Writer) error {
	cw := canon.NewWriter(w, ReportKind, 1)
	cw.Record(RecSummary, r)
	for i := range r.Ledger {
		cw.Record(RecViolation, &r.Ledger[i])
	}
	return cw.Close()
}

// ValidateJSONL checks an enforcement report: the summary first with a
// known mode, every violation well-formed with a known category, and
// the summary's violation count at least the number of ledgered records
// (the ledger is capped, never the counters). Returns the number of
// records.
func ValidateJSONL(r io.Reader) (int, error) {
	var sum *Report
	ledgered := uint64(0)
	err := canon.Read(r, ReportKind, 1, func(tag string, line []byte) error {
		if (sum == nil) != (tag == RecSummary) {
			return fmt.Errorf("%s record out of place (summary first, once)", tag)
		}
		switch tag {
		case RecSummary:
			sum = &Report{}
			if err := json.Unmarshal(line, sum); err != nil {
				return err
			}
			_, err := ParseMode(sum.Mode)
			return err
		case RecViolation:
			var v Violation
			if err := json.Unmarshal(line, &v); err != nil {
				return err
			}
			if v.Category != CatUnknownOrigin && v.Category != CatUnknownEdge {
				return fmt.Errorf("unknown violation category %q", v.Category)
			}
			if v.Name == "" {
				return fmt.Errorf("violation carries no syscall name")
			}
			ledgered++
			return nil
		}
		return fmt.Errorf("unknown record type %q", tag)
	})
	if err == nil && sum == nil {
		err = fmt.Errorf("%s: no summary record", ReportKind)
	}
	if err == nil && ledgered > sum.Violations {
		err = fmt.Errorf("%s: summary reports %d violations but %d are ledgered", ReportKind, sum.Violations, ledgered)
	}
	return 1 + int(ledgered), err
}

// Format renders the report for humans.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "sfip: mode=%s app=%s mech=%s — %d checked, %d violations, %d denied\n",
		r.Mode, r.App, r.Mech, r.Checked, r.Violations, r.Denied)
	for i := range r.Ledger {
		v := &r.Ledger[i]
		fmt.Fprintf(w, "  [%s] pid %d tid %d %s at site %#x, clock %d, seq %d\n",
			v.Category, v.PID, v.TID, v.Name, v.Site, v.Clock, v.Seq)
	}
}
