// Command k23bench is the host-cost benchmark of the simulator. It drives
// six workloads through the simulator's public entry points, times every
// call from outside, checks every job's guest-visible result, and prints one
// line per metric as `<workload> <metric> <value> <unit>`, followed by one
// JSON summary line.
//
//	bash cmd/k23bench/run.sh --workload micro --seed 1 --seconds 12 --trace 0
//
// Simulated cycles are the paper's numbers and serve here only as a check;
// the metrics are host wall time, throughput and memory. See README.md for
// the workloads, the metrics and what each layer metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupPasses is how many times a run sets up each workload (input
// generation plus the untimed reference pass); setup_s and world_heap_mb
// report the median over the passes.
const setupPasses = 5

// setupCalib is how many host-speed kernel timings bracket each set-up
// pass; their median rescales the pass (calib.go).
const setupCalib = 3

//go:embed expected.json
var expectedJSON []byte

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "k23bench:", err)
		os.Exit(1)
	}
}

// run parses args, runs the chosen workloads and writes the report to
// stdout. Diagnostics go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("k23bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "comma-separated workloads to run, or all: "+strings.Join(workloadNames(), ","))
	seed := fs.Uint64("seed", 1, "picks the job order, the fleet machine seeds and the rr spec seeds")
	seconds := fs.Float64("seconds", 12, "length of each workload's timed phase, in seconds (whole rounds)")
	trace := fs.Int("trace", 0, "1: run untraced then traced, halving -seconds, and report per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/k23bench-trace", "where a traced run writes spans.jsonl and <workload>.cpu.pprof")
	jsonOut := fs.String("json", "", "also write every result, with failure counts by layer, to this file")
	update := fs.String("update", "", "run the pinned workloads' reference pass, write the oracle to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 || math.IsNaN(*seconds) {
		return fmt.Errorf("-seconds must be >= 0")
	}
	pinned := map[string]outcome{}
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		return fmt.Errorf("embedded expected.json: %v", err)
	}
	b := &harness{seed: *seed, seconds: *seconds, passes: setupPasses, pinned: pinned,
		trace: *trace == 1, traceDir: *traceDir, log: stderr}
	if *update != "" {
		return b.update(*update)
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	return b.report(ws, stdout, *jsonOut)
}

// report runs ws and writes one line per metric, the traced run's spans,
// the -json file and the summary line.
func (b *harness) report(ws []*workload, stdout io.Writer, jsonOut string) error {
	if b.trace {
		if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
			return err
		}
	}
	var results []*result
	for _, w := range ws {
		r := b.runWorkload(w)
		results = append(results, r)
		for _, m := range r.Metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
		}
	}
	if b.trace {
		if err := writeSpans(filepath.Join(b.traceDir, "spans.jsonl"), b.tracers); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(summarize(results))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func selectWorkloads(list string) ([]*workload, error) {
	all := workloads()
	if list == "all" {
		return all, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		i := slices.Index(workloadNames(), name)
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ","))
		}
		out = append(out, all[i])
	}
	return out, nil
}

// formatValue prints a measured value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's report.
type result struct {
	Workload      string         `json:"workload"`
	Attempted     int            `json:"attempted"`
	Failed        int            `json:"failed"`
	FailedByLayer map[string]int `json:"failed_by_layer,omitempty"`
	Metrics       []metric       `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

// summarize builds the final JSON line. With several workloads the metric
// names are prefixed by the workload.
func summarize(rs []*result) summary {
	s := summary{Metrics: map[string]summaryValue{}}
	for _, r := range rs {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(rs) > 1 {
				name = r.Workload + "." + name
			}
			s.Metrics[name] = summaryValue{m.Value, m.Unit}
		}
	}
	s.Correct = s.Failed == 0
	return s
}

// outcome is the guest-visible result of one job. The reference pass's
// outcome for a job key is what every timed run of that key must
// reproduce; for the pinned workloads it must also equal expected.json.
type outcome struct {
	Exit     []int    `json:"exit,omitempty"`
	Steps    []uint64 `json:"steps,omitempty"`
	Cycles   []uint64 `json:"cycles,omitempty"`
	Syscalls []uint64 `json:"syscalls,omitempty"`
	Verdict  string   `json:"verdict,omitempty"`
	Detail   string   `json:"detail,omitempty"`
	Digest   string   `json:"digest,omitempty"`
}

// matches compares a timed outcome with the reference. Micro and macro
// jobs count syscalls only in the reference pass (a counting event hook
// would add host work to the timed path), so a timed outcome without
// syscall counts is compared without them.
func (o outcome) matches(want outcome) error {
	if o.Syscalls == nil {
		want.Syscalls = nil
	}
	if !reflect.DeepEqual(o, want) {
		return fmt.Errorf("result mismatch: got %+v, want %+v", o, want)
	}
	return nil
}

// job is one unit of timed work. run performs it, checks what it can check
// on its own (divergence, guest deaths, errors) and returns the outcome the
// runner compares with the reference.
type job struct {
	key string
	run func(c *jobCtx) (outcome, error)
}

// workload is a fixed job list. jobs generates the inputs from the seed.
type workload struct {
	name string
	// pinned workloads have their reference outcomes in expected.json.
	pinned bool
	// parallel workloads run with one P per CPU; the others, whose one
	// goroutine runs one job at a time, with a single P, so that the
	// garbage collector shares the job's CPU instead of racing it on
	// another.
	parallel bool
	jobs     func(b *harness) ([]job, error)
}

// jobCtx is what a job reports back besides its outcome.
type jobCtx struct {
	// ref marks the reference pass: jobs count syscalls and keep their
	// simulated machines alive for the heap measurement.
	ref bool
	// workers is the fleet worker count for this pass.
	workers int
	tr      *tracer
	// layer is the layer the job is in, for failure accounting.
	layer string
	// insts counts guest instructions retired by the job.
	insts uint64
	kept  []any
}

// step runs fn as one layer of the job: it names the layer for failure
// accounting and, when tracing, records a span around it.
func (c *jobCtx) step(layer, arg string, fn func() error) error {
	c.layer = layer
	if c.tr == nil {
		return fn()
	}
	c.tr.begin(layer, arg)
	err := fn()
	c.tr.end()
	return err
}

// keep retains v until the reference pass has measured the job's heap.
func (c *jobCtx) keep(v any) {
	if c.ref {
		c.kept = append(c.kept, v)
	}
}

// harness holds one invocation's settings and accumulated state.
type harness struct {
	seed     uint64
	seconds  float64
	passes   int
	pinned   map[string]outcome
	trace    bool
	traceDir string
	log      io.Writer
	calib    *calibrator
	tracers  []*tracer
	messages int
}

// maxMessages bounds the failure messages printed per invocation.
const maxMessages = 5

func (b *harness) fail(r *result, key, layer string, err error) {
	r.Failed++
	if r.FailedByLayer == nil {
		r.FailedByLayer = map[string]int{}
	}
	r.FailedByLayer[layer]++
	if b.messages < maxMessages {
		b.messages++
		fmt.Fprintf(b.log, "FAIL %s %s [%s]: %v\n", r.Workload, key, layer, err)
	}
}

// do runs one job under recover, so a panicking simulator counts as a
// failed job instead of ending the benchmark.
func (b *harness) do(j job, c *jobCtx) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c.layer = "job"
	return j.run(c)
}

// reference runs every job once, untimed, and returns the outcomes and the
// largest live heap one job's simulated machines held at its end.
func (b *harness) reference(r *result, w *workload, jobs []job) (map[string]outcome, uint64) {
	ref := make(map[string]outcome, len(jobs))
	var maxHeap uint64
	var ms runtime.MemStats
	for _, j := range jobs {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		base := ms.HeapAlloc
		c := &jobCtx{ref: true, workers: 1}
		out, err := b.do(j, c)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(c.kept)
		if ms.HeapAlloc > base && ms.HeapAlloc-base > maxHeap {
			maxHeap = ms.HeapAlloc - base
		}
		r.Attempted++
		if err == nil && w.pinned && b.pinned != nil {
			want, ok := b.pinned[j.key]
			switch {
			case !ok:
				err = errors.New("no pinned result in expected.json (regenerate with -update)")
			case !reflect.DeepEqual(out, want):
				err = fmt.Errorf("differs from expected.json: got %+v, want %+v", out, want)
			}
			c.layer = "check"
		}
		if err != nil {
			b.fail(r, j.key, c.layer, err)
			continue
		}
		ref[j.key] = out
	}
	return ref, maxHeap
}

// phase is what one timed phase measured.
type phase struct {
	// durs are the jobs' wall times in ns, rescaled to the reference host
	// speed by scale (calib.go).
	durs  []float64
	scale []float64
	// calib is the median host-speed kernel time of the phase.
	calib     time.Duration
	insts     uint64
	allocated uint64
	mallocs   uint64
	gcCPU     float64
	totalCPU  float64
}

// jobTime is the phase's summed rescaled job time in seconds.
func (ph *phase) jobTime() float64 {
	var sum float64
	for _, d := range ph.durs {
		sum += d
	}
	return sum / 1e9
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

// readCPU returns the CPU time the garbage collector has used and the CPU
// time available to the process (GOMAXPROCS times wall time), in seconds.
func readCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: cpuMetrics[0]}, {Name: cpuMetrics[1]}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// timed runs seed-shuffled rounds of the job list until the phase has
// lasted at least seconds, always finishing the round it is in. One job is
// outstanding at a time (a closed loop); the host-speed kernel runs before
// each job and after the last.
func (b *harness) timed(r *result, jobs []job, ref map[string]outcome, seconds float64, tr *tracer) phase {
	var ph phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := readCPU()
	workers := runtime.GOMAXPROCS(0)
	var raw, cal []time.Duration
	// calWall is the wall time the kernel took, warm-up included, so that
	// it can be taken out of the phase's CPU time.
	var calWall time.Duration
	calibrate := func() {
		t0 := time.Now()
		cal = append(cal, b.calib.time())
		calWall += time.Since(t0)
	}
	calibrate()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds; round++ {
		rng := rand.New(rand.NewPCG(b.seed, uint64(round)))
		for _, i := range rng.Perm(len(jobs)) {
			j := jobs[i]
			c := &jobCtx{workers: workers, tr: tr}
			if tr != nil {
				tr.beginJob(j.key)
			}
			t0 := time.Now()
			out, err := b.do(j, c)
			if err == nil {
				err = c.step("check", "", func() error {
					want, ok := ref[j.key]
					if !ok {
						return errors.New("no reference result (the reference pass failed)")
					}
					return out.matches(want)
				})
			}
			raw = append(raw, time.Since(t0))
			if tr != nil {
				tr.endJob()
			}
			calibrate()
			ph.insts += c.insts
			r.Attempted++
			if err != nil {
				b.fail(r, j.key, c.layer, err)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	gc1, cpu1 := readCPU()
	ph.allocated = m1.TotalAlloc - m0.TotalAlloc
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.gcCPU, ph.totalCPU = gc1-gc0, cpu1-cpu0-calWall.Seconds()*float64(workers)
	ph.scale = scales(cal)
	ph.calib = time.Duration(median(durations(cal)))
	for i, d := range raw {
		ph.durs = append(ph.durs, float64(d)*ph.scale[i])
	}
	return ph
}

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	lo := int(x)
	hi := lo
	if hi+1 < len(s) {
		hi++
	}
	frac := x - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runWorkload sets the workload up, runs its timed phase (and, with
// tracing, a traced phase) and returns its metrics.
func (b *harness) runWorkload(w *workload) *result {
	r := &result{Workload: w.name}
	procs := 1
	if w.parallel {
		procs = runtime.NumCPU()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	b.calib = newCalibrator(procs)
	var jobs []job
	var ref map[string]outcome
	var setups, heaps []float64
	cal0 := b.calib.median(setupCalib)
	for pass := 0; pass < b.passes; pass++ {
		t0 := time.Now()
		js, err := w.jobs(b)
		if err != nil {
			r.Attempted++
			b.fail(r, "inputs", "inputs", err)
			return r
		}
		out, heap := b.reference(r, w, js)
		wall := time.Since(t0)
		cal1 := b.calib.median(setupCalib)
		setups = append(setups, wall.Seconds()*float64(calibRef)/float64(cal0+cal1)*2)
		cal0 = cal1
		heaps = append(heaps, float64(heap)/1e6)
		if pass == 0 {
			jobs, ref = js, out
			continue
		}
		for _, j := range js {
			if got, ok := out[j.key]; ok {
				if want, ok := ref[j.key]; ok && !reflect.DeepEqual(got, want) {
					r.Attempted++
					b.fail(r, j.key, "check", fmt.Errorf("reference pass %d differs: got %+v, want %+v", pass, got, want))
				}
			}
		}
	}
	if !b.trace {
		ph := b.timed(r, jobs, ref, b.seconds, nil)
		n := float64(len(ph.durs))
		r.Metrics = []metric{
			{"job_p50_ms", percentile(ph.durs, 0.50) / 1e6, "ms"},
			{"job_p95_ms", percentile(ph.durs, 0.95) / 1e6, "ms"},
			{"jobs_per_s", n / ph.jobTime(), "1/s"},
			{"guest_mips", float64(ph.insts) / ph.jobTime() / 1e6, "Minst/s"},
			{"alloc_mb_per_job", float64(ph.allocated) / n / 1e6, "MB"},
			{"world_heap_mb", median(heaps), "MB"},
			{"setup_s", median(setups), "s"},
		}
	} else {
		r.Metrics = b.traced(r, w, jobs, ref)
	}
	fmt.Fprintf(b.log, "# %s: %d jobs attempted, %d failed\n", w.name, r.Attempted, r.Failed)
	return r
}

// update regenerates the pinned oracle from one reference pass of every
// pinned workload.
func (b *harness) update(path string) error {
	b.pinned = nil
	pinned := map[string]outcome{}
	for _, w := range workloads() {
		if !w.pinned {
			continue
		}
		r := &result{Workload: w.name}
		jobs, err := w.jobs(b)
		if err != nil {
			return fmt.Errorf("%s: %v", w.name, err)
		}
		ref, _ := b.reference(r, w, jobs)
		if r.Failed != 0 {
			return fmt.Errorf("%s: %d jobs failed", w.name, r.Failed)
		}
		for k, v := range ref {
			pinned[k] = v
		}
	}
	data, err := json.MarshalIndent(pinned, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
