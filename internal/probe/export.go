package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// FNV-1a, matching the span exporter's content hashing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
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
// ordinal: like the trace ring's loss header, a first retained Ord
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

// Hash is an FNV-1a hash over the canonical JSONL body (rows + emits,
// header excluded). Byte equality of exports is snapshot equality, so
// the hash is a snapshot identity too — the fleet determinism test
// compares it across worker counts.
func (s *Snapshot) Hash() (uint64, error) {
	h := uint64(fnvOffset)
	hashLine := func(line []byte) {
		for _, c := range line {
			h ^= uint64(c)
			h *= fnvPrime
		}
		h ^= uint64('\n')
		h *= fnvPrime
	}
	for _, r := range s.Rows {
		b, err := json.Marshal(rowLine{T: "row", Row: r})
		if err != nil {
			return 0, err
		}
		hashLine(b)
	}
	for _, em := range s.Emits {
		b, err := json.Marshal(emitLine{T: "emit", Emit: em})
		if err != nil {
			return 0, err
		}
		hashLine(b)
	}
	return h, nil
}

// ---------------------------------------------------------------------
// Canonical JSONL
// ---------------------------------------------------------------------

// JSONL envelope: one header pinning the program hash and aggregation
// cardinality, then rows, then emits, all in canonical order:
//
//	{"t":"probehdr","prog":"00871b3...","probes":2,"rows":14,"emits":3,"hash":"a1b2..."}
//	{"t":"row","probe":0,"action":0,"func":"hist",...}
//	{"t":"emit","ord":0,...}
//
// The encoding is canonical — struct field order, sorted rows — so
// byte equality of two exports is snapshot equality, which is what the
// replay-parity test asserts.

type probeHeader struct {
	T      string `json:"t"`
	Prog   string `json:"prog"`
	Probes int    `json:"probes"`
	Rows   int    `json:"rows"`
	Emits  int    `json:"emits"`
	Hash   string `json:"hash"`
}

type rowLine struct {
	T string `json:"t"`
	*Row
}

type emitLine struct {
	T string `json:"t"`
	*Emit
}

// WriteJSONL writes the snapshot in canonical form.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hash, err := s.Hash()
	if err != nil {
		return err
	}
	hdr, err := json.Marshal(probeHeader{
		T: "probehdr", Prog: fmt.Sprintf("%016x", s.ProgHash), Probes: s.Probes,
		Rows: len(s.Rows), Emits: len(s.Emits), Hash: fmt.Sprintf("%016x", hash),
	})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for _, r := range s.Rows {
		b, err := json.Marshal(rowLine{T: "row", Row: r})
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	for _, em := range s.Emits {
		b, err := json.Marshal(emitLine{T: "emit", Emit: em})
		if err != nil {
			return err
		}
		bw.Write(b)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadJSONL parses a probe JSONL stream and verifies the header's
// declared cardinality and content hash — the encoding is canonical,
// so a recomputed hash mismatch means the file was edited or truncated
// after export.
func ReadJSONL(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var hdr *probeHeader
	s := &Snapshot{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("probe jsonl line %d: %w", lineNo, err)
		}
		switch tag.T {
		case "probehdr":
			if hdr != nil {
				return nil, fmt.Errorf("probe jsonl line %d: duplicate header", lineNo)
			}
			hdr = &probeHeader{}
			if err := json.Unmarshal(raw, hdr); err != nil {
				return nil, fmt.Errorf("probe jsonl line %d: %w", lineNo, err)
			}
			ph, err := strconv.ParseUint(hdr.Prog, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("probe jsonl line %d: bad prog hash %q", lineNo, hdr.Prog)
			}
			s.ProgHash = ph
			s.Probes = hdr.Probes
		case "row":
			if hdr == nil {
				return nil, fmt.Errorf("probe jsonl line %d: row before header", lineNo)
			}
			row := &Row{}
			if err := json.Unmarshal(raw, &rowLine{Row: row}); err != nil {
				return nil, fmt.Errorf("probe jsonl line %d: %w", lineNo, err)
			}
			if _, ok := AggFuncByName(row.Func); !ok || row.Func == "emit" {
				return nil, fmt.Errorf("probe jsonl line %d: unknown aggregation %q", lineNo, row.Func)
			}
			s.Rows = append(s.Rows, row)
		case "emit":
			if hdr == nil {
				return nil, fmt.Errorf("probe jsonl line %d: emit before header", lineNo)
			}
			em := &Emit{}
			if err := json.Unmarshal(raw, &emitLine{Emit: em}); err != nil {
				return nil, fmt.Errorf("probe jsonl line %d: %w", lineNo, err)
			}
			if em.Stream != "ev" && em.Stream != "ph" {
				return nil, fmt.Errorf("probe jsonl line %d: emit stream %q, want ev|ph", lineNo, em.Stream)
			}
			s.Emits = append(s.Emits, em)
		default:
			return nil, fmt.Errorf("probe jsonl line %d: unknown record type %q", lineNo, tag.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if hdr == nil {
		return nil, fmt.Errorf("probe jsonl: missing header")
	}
	if len(s.Rows) != hdr.Rows {
		return nil, fmt.Errorf("probe jsonl: header declares %d rows, stream has %d", hdr.Rows, len(s.Rows))
	}
	if len(s.Emits) != hdr.Emits {
		return nil, fmt.Errorf("probe jsonl: header declares %d emits, stream has %d", hdr.Emits, len(s.Emits))
	}
	for i := 1; i < len(s.Rows); i++ {
		if !s.Rows[i-1].less(s.Rows[i]) {
			return nil, fmt.Errorf("probe jsonl: rows %d/%d out of canonical order", i-1, i)
		}
	}
	hash, err := s.Hash()
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", hash); got != hdr.Hash {
		return nil, fmt.Errorf("probe jsonl: content hash %s does not match header %s (edited or corrupted)", got, hdr.Hash)
	}
	return s, nil
}

// ValidateJSONL checks a probe JSONL stream (obsvcheck -probe) and
// returns the number of body records validated.
func ValidateJSONL(r io.Reader) (int, error) {
	s, err := ReadJSONL(r)
	if err != nil {
		return 0, err
	}
	return len(s.Rows) + len(s.Emits), nil
}
