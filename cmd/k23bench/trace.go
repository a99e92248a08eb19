package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"k23/internal/cpu"
	"k23/internal/pitfalls"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls. Job spans (Parent -1) wrap one job and
// carry the job's host-speed rescaling factor (calib.go); Start and End
// are raw wall time.
type span struct {
	Workload string  `json:"workload"`
	Job      int     `json:"job"`
	Key      string  `json:"key"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Layer    string  `json:"layer"`
	Arg      string  `json:"arg,omitempty"`
	Start    int64   `json:"start_ns"`
	End      int64   `json:"end_ns"`
	Alloc    uint64  `json:"alloc_bytes"`
	Scale    float64 `json:"host_scale,omitempty"`
}

// machine is one fleet machine's result, kept for the fleet metrics.
type machine struct {
	job      int
	wall     time.Duration
	syscalls uint64
	micro    bool
}

// layerStats are the traced phase's counters that come from the
// simulator's own statistics rather than from spans.
type layerStats struct {
	jit            cpu.JITStats
	dcache         cpu.DecodeCacheStats
	busy, capacity time.Duration // fleet process CPU time, and workers x batch wall time
	machines       []machine
	checkpoints    int
	pagesCopied    int
	recordingBytes int
	seekReexecuted uint64
	seekBase       uint64
}

// tracer keeps one traced phase's spans in memory.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
	job      int
	key      string
	alloc    []metrics.Sample
	stats    layerStats
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), job: -1,
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.alloc)
	return t.alloc[0].Value.Uint64()
}

func (t *tracer) begin(layer, arg string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		Workload: t.workload, Job: t.job, Key: t.key, ID: len(t.spans), Parent: parent,
		Layer: layer, Arg: arg, Start: int64(time.Since(t.t0)), Alloc: t.allocated(),
	})
}

func (t *tracer) end() {
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.End = int64(time.Since(t.t0))
	s.Alloc = t.allocated() - s.Alloc
}

func (t *tracer) beginJob(key string) {
	t.job++
	t.key = key
	t.begin("job", key)
}

// endJob closes the job span and any span a failed job left open.
func (t *tracer) endJob() {
	for len(t.open) > 0 {
		t.end()
	}
}

func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the benchmark-visible layers: the public calls the jobs time.
var layers = []string{
	"job", "check", "interpose.boot", "core.offline", "launch", "kernel.listen", "kernel.run",
	"pitfalls.cell", "fleet.run", "rr.record", "rr.run", "rr.write", "rr.read", "rr.validate",
	"rr.replay", "rr.replay_run", "rr.seek", "obsv.retrace",
}

// metricName spells a mechanism or PoC name as a metric name element.
func metricName(s string) string { return strings.ReplaceAll(s, "+", "-plus") }

// perLayerDefs lists every per-layer metric a traced run prints, in order.
// A traced run prints all of them whatever its workload; one whose layer
// the workload does not reach reads 0. Times are rescaled to the
// reference host speed like the end-to-end ones.
func perLayerDefs() []metric {
	var ds []metric
	add := func(name, unit string) { ds = append(ds, metric{Name: name, Unit: unit}) }
	add("trace_overhead_frac", "frac")
	add("host.calib_ms", "ms")
	add("interpose.boot_ms", "ms")
	for _, m := range microMechs() {
		add("launch_ms."+metricName(m), "ms")
	}
	add("core.offline_ms", "ms")
	for _, m := range microMechs() {
		add("kernel.syscall_ns."+metricName(m), "ns")
	}
	add("kernel.syscalls_per_job", "count")
	for _, a := range macroApps {
		add("cpu.step_ns."+a.name, "ns")
	}
	add("cpu.jit_coverage", "frac")
	add("cpu.jit_bails_per_entry", "1/entry")
	add("cpu.dcache_hit_rate", "frac")
	for _, m := range macroMechs {
		add("macro.request_us."+metricName(m), "us")
	}
	for _, p := range pitfalls.All() {
		add("pitfalls.cell_ms."+p.ID, "ms")
	}
	add("fleet.machine_ms", "ms")
	add("fleet.worker_busy_frac", "frac")
	add("fleet.syscall_ns", "ns")
	add("rr.record_ms", "ms")
	add("rr.write_ms", "ms")
	add("rr.record_ns_per_step", "ns")
	add("rr.checkpoints", "count")
	add("rr.pages_copied", "count")
	add("rr.recording_kb", "KB")
	add("rr.read_ms", "ms")
	add("rr.replay_ms", "ms")
	add("rr.seek_ms", "ms")
	add("rr.seek_reexecuted_frac", "frac")
	add("obsv.retrace_ms", "ms")
	add("obsv.overhead_frac", "frac")
	add("runtime.gc_cpu_frac", "frac")
	add("runtime.allocs_per_job", "count")
	add("runtime.rss_peak_mb", "MB")
	for _, p := range hostPackages {
		add("host_share."+p, "frac")
	}
	for _, l := range layers {
		add("self_ms."+l, "ms")
	}
	return ds
}

// traced runs an untraced and a traced phase of half the run each and
// derives the per-layer metrics from the traced phase's spans, counters
// and CPU profile.
func (b *harness) traced(r *result, w *workload, jobs []job, ref map[string]outcome) []metric {
	un := b.timed(r, jobs, ref, b.seconds/2, nil)
	tr := newTracer(w.name)
	b.tracers = append(b.tracers, tr)
	profPath := filepath.Join(b.traceDir, w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	ph := b.timed(r, jobs, ref, b.seconds/2, tr)
	var shares map[string]float64
	if err == nil {
		pprof.StopCPUProfile()
		if err = f.Close(); err == nil {
			shares, err = hostShares(profPath)
		}
	}
	if err != nil {
		r.Attempted++
		b.fail(r, "profile", "profile", err)
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Parent < 0 {
			s.Scale = ph.scale[s.Job]
		}
	}

	vals := map[string]float64{}
	jobsN := float64(len(ph.durs))
	if un.jobTime() > 0 {
		vals["trace_overhead_frac"] = (ph.jobTime()/jobsN)/(un.jobTime()/float64(len(un.durs))) - 1
	}
	vals["host.calib_ms"] = float64(ph.calib) / 1e6
	for p, v := range shares {
		vals["host_share."+p] = v
	}
	spanMetrics(tr.spans, ref, vals)

	var syscalls uint64
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Parent < 0 {
			for _, n := range ref[s.Key].Syscalls {
				syscalls += n
			}
		}
	}
	st := &tr.stats
	vals["kernel.syscalls_per_job"] = float64(syscalls) / jobsN
	if ph.insts > 0 {
		vals["cpu.jit_coverage"] = float64(st.jit.BlockInsts) / float64(ph.insts)
	}
	if st.jit.Entries > 0 {
		vals["cpu.jit_bails_per_entry"] = float64(st.jit.Bails) / float64(st.jit.Entries)
	}
	vals["cpu.dcache_hit_rate"] = st.dcache.HitRate()
	fleetMetrics(st, ph.scale, vals)
	vals["rr.checkpoints"] = float64(st.checkpoints) / jobsN
	vals["rr.pages_copied"] = float64(st.pagesCopied) / jobsN
	vals["rr.recording_kb"] = float64(st.recordingBytes) / 1024 / jobsN
	if st.seekBase > 0 {
		vals["rr.seek_reexecuted_frac"] = float64(st.seekReexecuted) / float64(st.seekBase)
	}
	if ph.totalCPU > 0 {
		vals["runtime.gc_cpu_frac"] = ph.gcCPU / ph.totalCPU
	}
	vals["runtime.allocs_per_job"] = float64(un.mallocs) / float64(len(un.durs))
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		vals["runtime.rss_peak_mb"] = float64(ru.Maxrss) / 1024
	}

	defs := perLayerDefs()
	for i := range defs {
		defs[i].Value = vals[defs[i].Name]
	}
	return defs
}

// fleetMetrics derives the fleet metrics from the machines' results.
func fleetMetrics(st *layerStats, scale []float64, vals map[string]float64) {
	var walls, perSyscall []float64
	for _, m := range st.machines {
		wall := float64(m.wall) * scale[m.job]
		walls = append(walls, wall/1e6)
		if m.micro && m.syscalls > 0 {
			perSyscall = append(perSyscall, wall/float64(m.syscalls))
		}
	}
	if st.capacity > 0 {
		vals["fleet.worker_busy_frac"] = float64(st.busy) / float64(st.capacity)
	}
	vals["fleet.machine_ms"] = median(walls)
	vals["fleet.syscall_ns"] = median(perSyscall)
}

// spanMetrics derives the span-based per-layer metrics. Every span's
// duration is rescaled by its job's host-speed factor.
func spanMetrics(spans []span, ref map[string]outcome, vals map[string]float64) {
	scale := map[int]float64{}
	for i := range spans {
		if spans[i].Parent < 0 {
			scale[spans[i].Job] = spans[i].Scale
		}
	}
	dur := func(s *span) float64 { return float64(s.End-s.Start) * scale[s.Job] }
	child := make([]float64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			child[p] += dur(&spans[i])
		}
	}
	// sum[name] is rescaled ns, or a count, summed over n[name] spans.
	sum, n := map[string]float64{}, map[string]float64{}
	add := func(name string, v float64) { sum[name] += v; n[name]++ }
	for i := range spans {
		s := &spans[i]
		d := dur(s)
		add("self."+s.Layer, d-child[i])
		key := strings.Split(s.Key, "/")
		if s.Parent < 0 {
			add("jobs."+key[0], 1)
			steps := ref[s.Key].Steps
			switch {
			case key[0] == "macro":
				for _, a := range macroApps {
					if a.name == key[1] {
						add("requests."+key[2], float64(a.work()))
					}
				}
				if key[2] == "native" && len(steps) == 1 {
					add("steps."+key[1], float64(steps[0]))
				}
			case key[0] == "record" && len(steps) == 1:
				add("steps.record", float64(steps[0]))
			}
			continue
		}
		add(s.Layer, d)
		switch {
		case s.Layer == "launch" || s.Layer == "pitfalls.cell":
			add(s.Layer+"."+s.Arg, d)
		case s.Layer == "kernel.run" && key[0] == "micro":
			add("loop."+key[1]+"."+s.Arg, d)
		case (s.Layer == "kernel.run" || s.Layer == "kernel.listen") && key[0] == "macro":
			add("serve."+key[2], d)
			if key[2] == "native" {
				add("serve.native."+key[1], d)
			}
		}
	}
	mean := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return sum[name] / n[name]
	}
	// ratio is sum[a] over sum[b], or 0.
	ratio := func(a, b string) float64 {
		if sum[b] == 0 {
			return 0
		}
		return sum[a] / sum[b]
	}
	var jobs float64
	for name, v := range sum {
		if strings.HasPrefix(name, "jobs.") {
			jobs += v
		}
	}
	if jobs == 0 {
		return
	}
	for _, l := range layers {
		vals["self_ms."+l] = sum["self."+l] / jobs / 1e6
	}
	vals["interpose.boot_ms"] = mean("interpose.boot") / 1e6
	vals["core.offline_ms"] = mean("core.offline") / 1e6
	for _, m := range microMechs() {
		vals["launch_ms."+metricName(m)] = mean("launch."+m) / 1e6
		short, long := mean("loop."+m+"."+strconv.Itoa(microIters1)), mean("loop."+m+"."+strconv.Itoa(microIters2))
		if short > 0 && long > 0 {
			vals["kernel.syscall_ns."+metricName(m)] = (long - short) / (microIters2 - microIters1)
		}
	}
	for _, p := range pitfalls.All() {
		vals["pitfalls.cell_ms."+p.ID] = mean("pitfalls.cell."+p.ID) / 1e6
	}
	for _, a := range macroApps {
		vals["cpu.step_ns."+a.name] = ratio("serve.native."+a.name, "steps."+a.name)
	}
	for _, m := range macroMechs {
		vals["macro.request_us."+metricName(m)] = ratio("serve."+m, "requests."+m) / 1e3
	}
	record := sum["rr.record"] + sum["rr.run"]
	replay := sum["rr.replay"] + sum["rr.replay_run"]
	if rec := sum["jobs.record"]; rec > 0 {
		vals["rr.record_ms"] = record / rec / 1e6
		vals["rr.write_ms"] = sum["rr.write"] / rec / 1e6
		if steps := sum["steps.record"]; steps > 0 {
			vals["rr.record_ns_per_step"] = record / steps
		}
	}
	if rep := sum["jobs.replay"]; rep > 0 {
		vals["rr.read_ms"] = (sum["rr.read"] + sum["rr.validate"]) / rep / 1e6
		vals["rr.replay_ms"] = replay / rep / 1e6
		vals["rr.seek_ms"] = sum["rr.seek"] / rep / 1e6
		vals["obsv.retrace_ms"] = sum["obsv.retrace"] / rep / 1e6
		if replay > 0 {
			vals["obsv.overhead_frac"] = sum["obsv.retrace"]/replay - 1
		}
	}
}
