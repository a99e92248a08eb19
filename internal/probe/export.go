package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"k23/internal/canon"
)

// Row is one aggregation cell in canonical output order. Probe/Action
// index into the program (Func/By are redundant but keep the JSONL
// self-describing); Key is the rendered `by` tuple.
type Row struct {
	Probe   int      `json:"probe"`
	Action  int      `json:"action"`
	Func    string   `json:"func"`
	By      []string `json:"by,omitempty"`
	Key     []string `json:"key,omitempty"`
	Count   uint64   `json:"count"`
	Val     int64    `json:"val,omitempty"`     // sum (sum/hist) or extremum (min/max)
	Buckets []uint64 `json:"buckets,omitempty"` // hist only; trailing zeros trimmed
}

// Emit is one emit() flight-recorder record. Ord is the engine's emit
// ordinal: like the trace ring's loss record, a first retained Ord
// above zero reveals how many earlier records the ring dropped.
type Emit struct {
	Machine string `json:"m,omitempty"`
	Ord     uint64 `json:"ord"`
	Probe   int    `json:"probe"`
	Stream  string `json:"s"` // "ev" | "ph"
	Seq     uint64 `json:"seq"`
	Clock   uint64 `json:"clock"`
	PID     int    `json:"pid"`
	TID     int    `json:"tid"`
	Kind    string `json:"kind"`
	Num     uint64 `json:"num"`
	Ret     int64  `json:"ret,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// Snapshot is the frozen, mergeable result of one engine (or, after
// Merge, a fleet). Rows are sorted by (probe, action, key tuple);
// emits by (machine, ord).
type Snapshot struct {
	// ProgHash pins the canonical text of the program that produced
	// this snapshot (Program.Hash).
	ProgHash uint64 `json:"prog_hash"`
	// Probes is the program's probe count.
	Probes int     `json:"probes"`
	Rows   []*Row  `json:"rows,omitempty"`
	Emits  []*Emit `json:"emits,omitempty"`
}

// Snapshot freezes the engine's state. Call after the machine has
// quiesced.
func (e *Engine) Snapshot() *Snapshot {
	s := &Snapshot{ProgHash: e.c.hash, Probes: len(e.c.Prog.Probes)}
	for slot, m := range e.cells {
		meta := e.c.acts[slot]
		for _, cl := range m {
			r := &Row{
				Probe:  meta.probe,
				Action: meta.action,
				Func:   meta.fn.String(),
				By:     meta.by,
				Key:    cl.key,
				Count:  cl.count,
				Val:    cl.val,
			}
			if cl.hist != nil {
				r.Buckets = trimBuckets(cl.hist)
			}
			s.Rows = append(s.Rows, r)
		}
	}
	// Unroll the emit ring oldest-first.
	if n := uint64(len(e.emits)); n > 0 && e.emitOrd > n {
		start := e.emitOrd % n
		ordered := make([]Emit, 0, n)
		ordered = append(ordered, e.emits[start:]...)
		ordered = append(ordered, e.emits[:start]...)
		for i := range ordered {
			s.Emits = append(s.Emits, &ordered[i])
		}
	} else {
		for i := range e.emits {
			s.Emits = append(s.Emits, &e.emits[i])
		}
	}
	s.normalize()
	return s
}

// trimBuckets drops trailing zero buckets for a canonical compact
// encoding (merge re-pads).
func trimBuckets(b []uint64) []uint64 {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	out := make([]uint64, n)
	copy(out, b[:n])
	return out
}

// normalize sorts rows and emits into canonical order.
func (s *Snapshot) normalize() {
	sort.Slice(s.Rows, func(i, j int) bool { return s.Rows[i].less(s.Rows[j]) })
	s.sortEmits()
}

func (s *Snapshot) sortEmits() {
	sort.Slice(s.Emits, func(i, j int) bool {
		a, b := s.Emits[i], s.Emits[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Ord < b.Ord
	})
}

// less is the canonical row order; rows neither less than the other
// are the same cell.
func (r *Row) less(o *Row) bool {
	if r.Probe != o.Probe {
		return r.Probe < o.Probe
	}
	if r.Action != o.Action {
		return r.Action < o.Action
	}
	for i := 0; i < len(r.Key) && i < len(o.Key); i++ {
		if r.Key[i] != o.Key[i] {
			return r.Key[i] < o.Key[i]
		}
	}
	return len(r.Key) < len(o.Key)
}

// Merge folds other into s. Merging is commutative and associative:
// counts and sums add, extrema take min/max, histograms add
// bucketwise, emit records interleave per machine in ord order — so a
// fleet reduction yields the same snapshot no matter the worker
// schedule. Both row lists are in canonical order (every Snapshot is),
// so one linear merge pass folds them.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	if s.ProgHash == 0 {
		s.ProgHash = other.ProgHash
		s.Probes = other.Probes
	}
	rows := make([]*Row, 0, len(s.Rows)+len(other.Rows))
	a, b := s.Rows, other.Rows
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].less(b[0]):
			rows = append(rows, a[0])
			a = a[1:]
		case len(a) == 0 || b[0].less(a[0]):
			cp := *b[0] // Key and By are never mutated; Buckets are
			cp.Buckets = append([]uint64(nil), cp.Buckets...)
			rows = append(rows, &cp)
			b = b[1:]
		default:
			a[0].merge(b[0])
			rows = append(rows, a[0])
			a, b = a[1:], b[1:]
		}
	}
	s.Rows = rows
	for _, em := range other.Emits {
		cp := *em
		s.Emits = append(s.Emits, &cp)
	}
	s.sortEmits()
}

func (r *Row) merge(o *Row) {
	switch r.Func {
	case "count":
		r.Count += o.Count
	case "sum":
		r.Count += o.Count
		r.Val += o.Val
	case "min":
		if o.Count > 0 && (r.Count == 0 || o.Val < r.Val) {
			r.Val = o.Val
		}
		r.Count += o.Count
	case "max":
		if o.Count > 0 && (r.Count == 0 || o.Val > r.Val) {
			r.Val = o.Val
		}
		r.Count += o.Count
	case "hist":
		r.Count += o.Count
		r.Val += o.Val
		if len(o.Buckets) > len(r.Buckets) {
			padded := make([]uint64, len(o.Buckets))
			copy(padded, r.Buckets)
			r.Buckets = padded
		}
		for i, v := range o.Buckets {
			r.Buckets[i] += v
		}
	}
}

// Hash is an FNV-1a hash over the canonical row and emit lines. Byte
// equality of exports is snapshot equality, so the hash is a snapshot
// identity too — the fleet determinism test compares it across worker
// counts.
func (s *Snapshot) Hash() (uint64, error) {
	w := canon.NewHasher(canon.NewHash())
	err := s.records(w)
	return w.Sum(), err
}

func (s *Snapshot) records(w *canon.Writer) error {
	var err error
	for _, r := range s.Rows {
		err = w.Record("row", r)
	}
	for _, em := range s.Emits {
		err = w.Record("emit", em)
	}
	return err
}

// ---------------------------------------------------------------------
// Canonical JSONL
// ---------------------------------------------------------------------

// Kind names the probe artifact (canon envelope): a "prog" record
// pinning the program hash and probe count, then rows, then emits, all
// in canonical order:
//
//	{"t":"prog","prog":"00871b3...","probes":2}
//	{"t":"row","probe":0,"action":0,"func":"hist",...}
//	{"t":"emit","ord":0,...}
//
// The encoding is canonical — struct field order, sorted rows — so
// byte equality of two exports is snapshot equality, which is what the
// replay-parity test asserts.
const Kind = "probe"

type progRec struct {
	Prog   string `json:"prog"`
	Probes int    `json:"probes"`
}

// WriteJSONL writes the snapshot in canonical form.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	cw := canon.NewWriter(w, Kind, 1)
	cw.Record("prog", &progRec{Prog: fmt.Sprintf("%016x", s.ProgHash), Probes: s.Probes})
	s.records(cw)
	return cw.Close()
}

// ReadJSONL parses a probe artifact, checking that rows and emits are
// in canonical order; the envelope rejects edited or truncated files.
func ReadJSONL(r io.Reader) (*Snapshot, error) {
	var s *Snapshot
	err := canon.Read(r, Kind, 1, func(tag string, line []byte) error {
		if (s == nil) != (tag == "prog") {
			return fmt.Errorf("%s record out of place (prog first, once)", tag)
		}
		switch tag {
		case "prog":
			var p progRec
			if err := json.Unmarshal(line, &p); err != nil {
				return err
			}
			ph, err := strconv.ParseUint(p.Prog, 16, 64)
			if err != nil {
				return fmt.Errorf("bad prog hash %q", p.Prog)
			}
			s = &Snapshot{ProgHash: ph, Probes: p.Probes}
		case "row":
			row := &Row{}
			if err := json.Unmarshal(line, row); err != nil {
				return err
			}
			if _, ok := AggFuncByName(row.Func); !ok || row.Func == "emit" {
				return fmt.Errorf("unknown aggregation %q", row.Func)
			}
			if n := len(s.Rows); n > 0 && !s.Rows[n-1].less(row) || len(s.Emits) > 0 {
				return fmt.Errorf("row out of canonical order")
			}
			s.Rows = append(s.Rows, row)
		case "emit":
			em := &Emit{}
			if err := json.Unmarshal(line, em); err != nil {
				return err
			}
			if em.Stream != "ev" && em.Stream != "ph" {
				return fmt.Errorf("emit stream %q, want ev|ph", em.Stream)
			}
			if n := len(s.Emits); n > 0 {
				if p := s.Emits[n-1]; p.Machine > em.Machine || p.Machine == em.Machine && p.Ord >= em.Ord {
					return fmt.Errorf("emit (%q, %d) not after (%q, %d)", em.Machine, em.Ord, p.Machine, p.Ord)
				}
			}
			s.Emits = append(s.Emits, em)
		default:
			return fmt.Errorf("unknown record type %q", tag)
		}
		return nil
	})
	if err == nil && s == nil {
		err = fmt.Errorf("probe: missing prog record")
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ValidateJSONL checks a probe artifact and returns the number of rows
// and emits validated.
func ValidateJSONL(r io.Reader) (int, error) {
	s, err := ReadJSONL(r)
	if err != nil {
		return 0, err
	}
	return len(s.Rows) + len(s.Emits), nil
}
