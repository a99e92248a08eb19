package obsv

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"strings"
	"testing"

	"k23/internal/canon"
	"k23/internal/kernel"
	"k23/internal/probe"
)

func mkEvent(kind kernel.EventKind, tid int, nr uint64) kernel.Event {
	return kernel.Event{PID: tid / 100, TID: tid, Kind: kind, Num: nr}
}

// errnoRet builds the kernel's negative-errno return encoding.
func errnoRet(e int) uint64 { return uint64(-int64(e)) }

// TestRingWraparound: the recorder retains exactly the newest Cap()
// records, oldest-first, with the sequence gap making drops observable.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(8)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 20; i++ {
		e := mkEvent(kernel.EvEnter, 100, uint64(i))
		e.Clock = uint64(i)
		r.Append(&e)
	}
	if r.Seq() != 20 {
		t.Errorf("Seq = %d, want 20", r.Seq())
	}
	if r.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", r.Dropped())
	}
	recs := r.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("Snapshot len = %d, want 8", len(recs))
	}
	for i, rec := range recs {
		want := uint64(12 + i) // oldest retained is seq 12
		if rec.Seq != want || rec.Num != want {
			t.Errorf("rec[%d]: seq=%d num=%d, want both %d", i, rec.Seq, rec.Num, want)
		}
	}
}

// TestRingRoundsToPowerOfTwo: sizes round up; zero selects the default.
func TestRingRoundsToPowerOfTwo(t *testing.T) {
	if got := NewRecorder(100).Cap(); got != 128 {
		t.Errorf("NewRecorder(100).Cap() = %d, want 128", got)
	}
	if got := NewRecorder(0).Cap(); got != DefaultRingSize {
		t.Errorf("NewRecorder(0).Cap() = %d, want %d", got, DefaultRingSize)
	}
}

// metricsOf runs the built-in metrics program over events.
func metricsOf(events ...kernel.Event) *Snapshot {
	o := New(Options{Metrics: true})
	for _, e := range events {
		o.Metrics.HandleEvent(e)
	}
	return o.Snapshot()
}

// TestHistBuckets: values land in their log2 bucket, the bounds are
// consistent, and the metrics view pads and sums them into the fixed
// JSON layout.
func TestHistBuckets(t *testing.T) {
	for v, want := range map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 1024: 11, 1 << 40: probe.HistBuckets - 1, -1: probe.HistBuckets - 1} {
		b := probe.HistBucket(v)
		if b != want {
			t.Errorf("HistBucket(%d) = %d, want %d", v, b, want)
		}
		if b < probe.HistBuckets-1 && uint64(v) >= probe.BucketUpperBound(b) {
			t.Errorf("%d is not below bucket %d's bound %d", v, b, probe.BucketUpperBound(b))
		}
	}
	if probe.BucketUpperBound(probe.HistBuckets-1) != ^uint64(0) {
		t.Error("the overflow bucket is not a catch-all")
	}
	var evs []kernel.Event
	for _, cost := range []uint64{0, 1, 2, 3, 1024} {
		e := mkEvent(kernel.EvExit, 100, kernel.SysGetpid)
		e.Cost = cost
		evs = append(evs, e)
	}
	h := metricsOf(evs...).Metrics.Syscalls[0].Hist
	if h.Count != 5 || h.Sum != 1030 {
		t.Fatalf("Count=%d Sum=%d, want 5/1030", h.Count, h.Sum)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[11] != 1 {
		t.Errorf("bucket layout wrong: %v", h.Buckets[:12])
	}
}

// TestMetricsAggregation: enter/exit pairs aggregate per syscall and
// per process; errno returns count as errors; mechanism events count
// per path.
func TestMetricsAggregation(t *testing.T) {
	enter := mkEvent(kernel.EvEnter, 100, kernel.SysGetpid)
	exit := mkEvent(kernel.EvExit, 100, kernel.SysGetpid)
	exit.Ret = 1
	exit.Cost = 200
	failed := mkEvent(kernel.EvExit, 200, kernel.SysOpen)
	failed.Ret = errnoRet(kernel.ENOENT)
	failed.Cost = 300
	snap := metricsOf(enter, exit, failed,
		kernel.Event{Kind: kernel.EvInterposed, Detail: "rewrite"},
		kernel.Event{Kind: kernel.EvInterposed, Detail: "rewrite"},
		kernel.Event{Kind: kernel.EvSudSigsys})

	s := snap.Metrics
	if len(s.Syscalls) != 2 {
		t.Fatalf("got %d syscall rows, want 2", len(s.Syscalls))
	}
	// Sorted by nr: open(2) before getpid(39).
	if s.Syscalls[0].Name != "open" || s.Syscalls[0].Errors != 1 {
		t.Errorf("row 0 = %+v, want open with 1 error", s.Syscalls[0])
	}
	if s.Syscalls[1].Name != "getpid" || s.Syscalls[1].Count != 1 || s.Syscalls[1].Hist.Sum != 200 {
		t.Errorf("row 1 = %+v, want getpid count=1 sum=200", s.Syscalls[1])
	}
	if len(s.Procs) != 2 || s.Procs[0].PID != 1 || s.Procs[1].PID != 2 {
		t.Fatalf("proc rows = %+v, want pids 1,2", s.Procs)
	}
	wantMech := []MechStat{{Mechanism: "rewrite", Count: 2}, {Mechanism: "sud-trap", Count: 1}}
	if !reflect.DeepEqual(s.Mechanisms, wantMech) {
		t.Errorf("mechanisms = %+v, want %+v", s.Mechanisms, wantMech)
	}
	if s.TotalSyscalls() != 2 {
		t.Errorf("TotalSyscalls = %d, want 2", s.TotalSyscalls())
	}

	// Merging the snapshot into itself doubles every counter.
	merged := &Snapshot{}
	merged.Merge(snap)
	merged.Merge(snap)
	if merged.Metrics.TotalSyscalls() != 4 {
		t.Errorf("merged TotalSyscalls = %d, want 4", merged.Metrics.TotalSyscalls())
	}
	if merged.Metrics.Syscalls[1].Hist.Sum != 400 {
		t.Errorf("merged getpid sum = %d, want 400", merged.Metrics.Syscalls[1].Hist.Sum)
	}
	if merged.Metrics.Mechanisms[0].Count != 4 {
		t.Errorf("merged rewrite count = %d, want 4", merged.Metrics.Mechanisms[0].Count)
	}
	if !reflect.DeepEqual(snap.Metrics, s) {
		t.Error("merging mutated the source snapshot's metrics")
	}
}

// TestJSONLRoundTrip: WriteJSONL output passes the schema validator,
// and the validator rejects each class of violation.
func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(16)
	enter := mkEvent(kernel.EvEnter, 100, kernel.SysWrite)
	enter.Args = [6]uint64{1, 0x5000, 12}
	enter.Clock = 10
	r.Append(&enter)
	exit := mkEvent(kernel.EvExit, 100, kernel.SysWrite)
	exit.Ret = 12
	exit.Clock = 20
	r.Append(&exit)
	sig := mkEvent(kernel.EvSignal, 100, kernel.SIGSYS)
	sig.Clock = 30
	r.Append(&sig)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Ring{Recs: r.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if n != 3 {
		t.Errorf("validated %d records, want 3", n)
	}

	// Each bad body is sealed with a matching trailer, so only the
	// schema check can reject it.
	bad := []struct {
		name, line string
	}{
		{"not json", `{"t":"event",nope}`},
		{"missing kind", `{"t":"event","seq":0,"clock":1,"pid":1,"tid":100}`},
		{"unknown kind", `{"t":"event","seq":0,"clock":1,"pid":1,"tid":100,"kind":"warp"}`},
		{"enter without args", `{"t":"event","seq":0,"clock":1,"pid":1,"tid":100,"kind":"enter","num":39,"name":"getpid"}`},
		{"exit without ret", `{"t":"event","seq":0,"clock":1,"pid":1,"tid":100,"kind":"exit","num":39,"name":"getpid"}`},
	}
	for _, tc := range bad {
		body := `{"t":"ring","dropped":0}` + "\n" + tc.line
		if _, err := ValidateJSONL(bytes.NewReader(canon.Seal(Kind, 1, []byte(body)))); err == nil {
			t.Errorf("%s: validator accepted %q", tc.name, tc.line)
		}
	}
	// Sequence regression across lines.
	two := `{"t":"ring","dropped":5}
{"t":"event","seq":5,"clock":1,"pid":1,"tid":100,"kind":"signal","num":31}
{"t":"event","seq":5,"clock":2,"pid":1,"tid":100,"kind":"signal","num":31}`
	if _, err := ValidateJSONL(bytes.NewReader(canon.Seal(Kind, 1, []byte(two)))); err == nil {
		t.Error("validator accepted duplicate seq")
	}
}

// TestStraceFormat: exits fold in the paired enter's arguments, errno
// returns render symbolically, signals and process deaths use strace's
// --- / +++ framing.
func TestStraceFormat(t *testing.T) {
	r := NewRecorder(16)
	enter := mkEvent(kernel.EvEnter, 100, kernel.SysOpen)
	enter.Args = [6]uint64{0x5000, 0}
	r.Append(&enter)
	exit := mkEvent(kernel.EvExit, 100, kernel.SysOpen)
	exit.Ret = errnoRet(kernel.ENOENT)
	r.Append(&exit)
	death := mkEvent(kernel.EvExitProc, 100, 0)
	death.Detail = "killed by signal 31 (bad syscall)"
	r.Append(&death)

	var buf bytes.Buffer
	if err := WriteStrace(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"open(0x5000, 0x0)", "-1 ENOENT", "+++ killed by signal 31"} {
		if !strings.Contains(out, want) {
			t.Errorf("strace output missing %q:\n%s", want, out)
		}
	}
}

// TestExcerpt centers on the last interesting event and clamps at the
// trace edges.
func TestExcerpt(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Seq: uint64(i), Kind: kernel.EvEnter})
	}
	recs[6].Kind = kernel.EvSignal // the trigger
	got := Excerpt(recs, 2)
	if len(got) != 5 || got[0].Seq != 4 || got[4].Seq != 8 {
		t.Errorf("excerpt = seqs %d..%d len %d, want 4..8 len 5", got[0].Seq, got[len(got)-1].Seq, len(got))
	}
	// Nothing interesting: the tail is returned.
	for i := range recs {
		recs[i].Kind = kernel.EvEnter
	}
	got = Excerpt(recs, 3)
	if got[len(got)-1].Seq != 9 {
		t.Errorf("fallback excerpt should end at the tail, got seq %d", got[len(got)-1].Seq)
	}
	if Excerpt(nil, 3) != nil {
		t.Error("empty trace should excerpt to nil")
	}
}

// TestPrometheusOutput: the exposition contains the metric families and
// the extra labels, with histogram buckets cumulative.
func TestPrometheusOutput(t *testing.T) {
	var evs []kernel.Event
	for i := 0; i < 3; i++ {
		e := mkEvent(kernel.EvExit, 100, kernel.SysGetpid)
		e.Cost = uint64(100 << i)
		evs = append(evs, e)
	}
	var buf bytes.Buffer
	metricsOf(evs...).Metrics.WritePrometheus(&buf, [][2]string{{"machine", "m-01"}})
	out := buf.String()
	for _, want := range []string{
		`k23_syscalls_total{machine="m-01",syscall="getpid"} 3`,
		`k23_syscall_cost_cycles_count{machine="m-01",syscall="getpid"} 3`,
		`k23_syscall_cost_cycles_sum{machine="m-01",syscall="getpid"} 700`,
		"# TYPE k23_syscall_cost_cycles histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestPprofEncoding: the writer produces a valid gzip stream with
// plausible protobuf inside (non-empty, starts with a field-1 tag).
func TestPprofEncoding(t *testing.T) {
	s := &ProfileSnapshot{
		Period: 64,
		Samples: []ProfSample{
			{PID: 1, TID: 100, RIP: 0x401000, Count: 5, Prog: "micro", Region: "/bench/micro:text", Offset: 0x20},
			{PID: 1, TID: 100, RIP: 0x401040, Count: 2, Prog: "micro", Region: "/bench/micro:text", Offset: 0x60},
		},
	}
	var buf bytes.Buffer
	if err := s.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip stream corrupt: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty profile")
	}
	if raw[0]>>3 != 1 {
		t.Errorf("profile does not start with sample_type (field 1), got tag byte %#x", raw[0])
	}
	var fold bytes.Buffer
	if err := s.WriteFolded(&fold); err != nil {
		t.Fatal(err)
	}
	if want := "micro;/bench/micro:text+0x20 5\n"; !strings.Contains(fold.String(), want) {
		t.Errorf("folded output missing %q:\n%s", want, fold.String())
	}
}

// TestSnapshotMerge: trace concatenation, metric addition, profile
// site summing.
func TestSnapshotMerge(t *testing.T) {
	exit := func(tid int, nr, cost uint64) kernel.Event {
		e := mkEvent(kernel.EvExit, tid, nr)
		e.Cost = cost
		return e
	}
	a := metricsOf(exit(100, kernel.SysGetpid, 100), exit(100, kernel.SysOpen, 300))
	a.Trace, a.TraceSeq = []Record{{Seq: 0}, {Seq: 1}}, 2
	a.Profile = &ProfileSnapshot{Period: 64, Samples: []ProfSample{{TID: 100, RIP: 0x10, Count: 1}}}
	a.Metrics.DecodeCache.Hits = 5
	b := metricsOf(exit(200, kernel.SysGetpid, 50))
	b.Trace, b.TraceSeq = []Record{{Seq: 0}}, 1
	b.Profile = &ProfileSnapshot{Period: 64, Samples: []ProfSample{{TID: 100, RIP: 0x10, Count: 2}}}
	b.Metrics.DecodeCache.Hits = 7
	a.Merge(b)
	if len(a.Trace) != 3 || a.TraceSeq != 3 {
		t.Errorf("merged trace len=%d seq=%d, want 3/3", len(a.Trace), a.TraceSeq)
	}
	if len(a.Profile.Samples) != 1 || a.Profile.Samples[0].Count != 3 {
		t.Errorf("merged profile = %+v, want single site count 3", a.Profile.Samples)
	}
	m := a.Metrics
	if m.TotalSyscalls() != 3 || len(m.Procs) != 2 || m.DecodeCache.Hits != 12 {
		t.Errorf("merged metrics: %d syscalls, %d procs, %d cache hits, want 3/2/12", m.TotalSyscalls(), len(m.Procs), m.DecodeCache.Hits)
	}
	if g := m.Syscalls[1]; g.Name != "getpid" || g.Count != 2 || g.Hist.Sum != 150 {
		t.Errorf("merged getpid = %+v, want count 2 sum 150", g)
	}
	a.Merge(nil) // must be a no-op
	if len(a.Trace) != 3 {
		t.Error("Merge(nil) mutated the snapshot")
	}
}

// TestNames: syscall/errno/signal naming with fallbacks.
func TestNames(t *testing.T) {
	if got := SyscallName(kernel.SysOpenat); got != "openat" {
		t.Errorf("SyscallName(openat) = %q", got)
	}
	if got := SyscallName(500); got != "syscall_500" {
		t.Errorf("SyscallName(500) = %q", got)
	}
	if got := ErrnoName(kernel.ENOSYS); got != "ENOSYS" {
		t.Errorf("ErrnoName(ENOSYS) = %q", got)
	}
	if got := SignalName(kernel.SIGSYS); got != "SIGSYS" {
		t.Errorf("SignalName(31) = %q", got)
	}
	if got := SignalName(7); got != "SIG7" {
		t.Errorf("SignalName(7) = %q", got)
	}
}
