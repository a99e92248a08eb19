package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"k23/internal/cpu"
	"k23/internal/kernel"
	"k23/internal/probe"
)

// Hist is the JSON view of one log2-bucketed histogram of per-call
// virtual-cycle costs (probe.HistBucket's layout).
type Hist struct {
	Count   uint64                    `json:"count"`
	Sum     uint64                    `json:"sum"`
	Buckets [probe.HistBuckets]uint64 `json:"buckets"`
}

// SyscallStat aggregates one syscall number.
type SyscallStat struct {
	Nr     uint64 `json:"nr"`
	Name   string `json:"name"`
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	Hist   Hist   `json:"latency"`
}

// ProcStat aggregates one process.
type ProcStat struct {
	PID      int    `json:"pid"`
	Syscalls uint64 `json:"syscalls"`
	Errors   uint64 `json:"errors"`
	Hist     Hist   `json:"latency"`
}

// MechStat counts syscalls attributed to one interposition path.
// Mechanisms "rewrite", "sud" and "ptrace" come from the interposers
// themselves (kernel.EmitInterposed); "sud-trap" and "seccomp-trap"
// count the kernel-side SIGSYS deliveries that precede SUD/seccomp
// handler entries.
type MechStat struct {
	Mechanism string `json:"mechanism"`
	Count     uint64 `json:"count"`
}

// KindStat counts raw kernel events of one kind.
type KindStat struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// MetricsSnapshot is the rendered view of one (or, after merging, many)
// machines' metrics: the built-in metrics program's aggregations plus the
// decode-cache counters. All collections are sorted slices so snapshots
// from identical runs compare DeepEqual.
type MetricsSnapshot struct {
	Syscalls    []SyscallStat        `json:"syscalls"`
	Procs       []ProcStat           `json:"procs"`
	Mechanisms  []MechStat           `json:"mechanisms"`
	Kinds       []KindStat           `json:"events"`
	DecodeCache cpu.DecodeCacheStats `json:"decode_cache"`
}

// metricsView renders the metrics program's (possibly merged) snapshot;
// rows are addressed by their (probe, action) position in
// probe.MetricsProgram.
func metricsView(ps *probe.Snapshot, dc cpu.DecodeCacheStats) *MetricsSnapshot {
	m := &MetricsSnapshot{DecodeCache: dc}
	sys := map[uint64]*SyscallStat{}
	procs := map[int]*ProcStat{}
	mech := map[string]uint64{}
	for _, r := range ps.Rows {
		var n int64
		if len(r.Key) == 1 {
			n, _ = strconv.ParseInt(r.Key[0], 10, 64)
		}
		switch [2]int{r.Probe, r.Action} {
		case [2]int{0, 0}: // hist(cycles) by (nr)
			nr := uint64(n)
			sys[nr] = &SyscallStat{Nr: nr, Name: kernel.SyscallName(nr), Count: r.Count, Hist: histView(r)}
		case [2]int{0, 1}: // hist(cycles) by (pid)
			procs[int(n)] = &ProcStat{PID: int(n), Syscalls: r.Count, Hist: histView(r)}
		case [2]int{1, 0}: // errno != 0: count() by (nr)
			sys[uint64(n)].Errors = r.Count
		case [2]int{1, 1}: // errno != 0: count() by (pid)
			procs[int(n)].Errors = r.Count
		case [2]int{2, 0}: // event:interposed count() by (detail)
			mech[r.Key[0]] += r.Count
		case [2]int{3, 0}: // event:sud-sigsys
			mech["sud-trap"] += r.Count
		case [2]int{4, 0}: // event:seccomp-sigsys
			mech["seccomp-trap"] += r.Count
		case [2]int{5, 0}: // event:* count() by (kind)
			m.Kinds = append(m.Kinds, KindStat{Kind: r.Key[0], Count: r.Count})
		}
	}
	for _, s := range sys {
		m.Syscalls = append(m.Syscalls, *s)
	}
	sort.Slice(m.Syscalls, func(i, j int) bool { return m.Syscalls[i].Nr < m.Syscalls[j].Nr })
	for _, p := range procs {
		m.Procs = append(m.Procs, *p)
	}
	sort.Slice(m.Procs, func(i, j int) bool { return m.Procs[i].PID < m.Procs[j].PID })
	for name, n := range mech {
		m.Mechanisms = append(m.Mechanisms, MechStat{Mechanism: name, Count: n})
	}
	sort.Slice(m.Mechanisms, func(i, j int) bool { return m.Mechanisms[i].Mechanism < m.Mechanisms[j].Mechanism })
	return m
}

// histView pads a hist row's trimmed buckets into the fixed JSON layout.
func histView(r *probe.Row) Hist {
	h := Hist{Count: r.Count, Sum: uint64(r.Val)}
	copy(h.Buckets[:], r.Buckets)
	return h
}

// TotalSyscalls sums syscall exit counts.
func (s *MetricsSnapshot) TotalSyscalls() uint64 {
	var n uint64
	for i := range s.Syscalls {
		n += s.Syscalls[i].Count
	}
	return n
}

// WriteJSON renders the snapshot as indented JSON.
func (s *MetricsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format. extraLabels (e.g. machine="redis-03") are attached to every
// sample; pass nil for none. Label pairs are rendered in the given
// order, so output is deterministic.
func (s *MetricsSnapshot) WritePrometheus(w io.Writer, extraLabels [][2]string) {
	lbl := func(pairs ...[2]string) string { return promLabels(extraLabels, pairs...) }
	fmt.Fprintln(w, "# HELP k23_syscalls_total Interposed-kernel syscall completions per syscall.")
	fmt.Fprintln(w, "# TYPE k23_syscalls_total counter")
	for i := range s.Syscalls {
		st := &s.Syscalls[i]
		fmt.Fprintf(w, "k23_syscalls_total%s %d\n", lbl([2]string{"syscall", st.Name}), st.Count)
	}
	fmt.Fprintln(w, "# HELP k23_syscall_errors_total Syscalls that returned an errno.")
	fmt.Fprintln(w, "# TYPE k23_syscall_errors_total counter")
	for i := range s.Syscalls {
		st := &s.Syscalls[i]
		if st.Errors != 0 {
			fmt.Fprintf(w, "k23_syscall_errors_total%s %d\n", lbl([2]string{"syscall", st.Name}), st.Errors)
		}
	}
	fmt.Fprintln(w, "# HELP k23_syscall_cost_cycles Per-call charged virtual cycles (log2 buckets).")
	fmt.Fprintln(w, "# TYPE k23_syscall_cost_cycles histogram")
	for i := range s.Syscalls {
		st := &s.Syscalls[i]
		writePromHist(w, "k23_syscall_cost_cycles", extraLabels, &st.Hist, [2]string{"syscall", st.Name})
	}
	fmt.Fprintln(w, "# HELP k23_interposed_total Syscalls attributed per interposition mechanism.")
	fmt.Fprintln(w, "# TYPE k23_interposed_total counter")
	for _, m := range s.Mechanisms {
		fmt.Fprintf(w, "k23_interposed_total%s %d\n", lbl([2]string{"mechanism", m.Mechanism}), m.Count)
	}
	fmt.Fprintln(w, "# HELP k23_events_total Kernel trace events per kind.")
	fmt.Fprintln(w, "# TYPE k23_events_total counter")
	for _, kc := range s.Kinds {
		fmt.Fprintf(w, "k23_events_total%s %d\n", lbl([2]string{"kind", kc.Kind}), kc.Count)
	}
	fmt.Fprintln(w, "# HELP k23_decode_cache_hits_total Decoded-instruction cache hits.")
	fmt.Fprintln(w, "# TYPE k23_decode_cache_hits_total counter")
	fmt.Fprintf(w, "k23_decode_cache_hits_total%s %d\n", lbl(), s.DecodeCache.Hits)
	fmt.Fprintln(w, "# HELP k23_decode_cache_misses_total Decoded-instruction cache misses.")
	fmt.Fprintln(w, "# TYPE k23_decode_cache_misses_total counter")
	fmt.Fprintf(w, "k23_decode_cache_misses_total%s %d\n", lbl(), s.DecodeCache.Misses)
}

// promLabels renders extra then pairs as a Prometheus label set, in the
// given order ("" when there are none).
func promLabels(extra [][2]string, pairs ...[2]string) string {
	all := append(append([][2]string{}, extra...), pairs...)
	if len(all) == 0 {
		return ""
	}
	out := "{"
	for i, p := range all {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", p[0], p[1])
	}
	return out + "}"
}

// writePromHist writes one histogram's non-empty cumulative buckets, sum
// and count, labelled extra, then base, then le on the buckets.
func writePromHist(w io.Writer, name string, extra [][2]string, h *Hist, base ...[2]string) {
	var cum uint64
	for b := 0; b < probe.HistBuckets; b++ {
		if h.Buckets[b] == 0 {
			continue
		}
		cum += h.Buckets[b]
		le := fmt.Sprintf("%d", probe.BucketUpperBound(b))
		if b == probe.HistBuckets-1 {
			le = "+Inf"
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(extra, append(base[:len(base):len(base)], [2]string{"le", le})...), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", name, promLabels(extra, base...), h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(extra, base...), h.Count)
}
