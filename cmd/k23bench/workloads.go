package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"k23/internal/apps"
	"k23/internal/asm"
	"k23/internal/bench"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/fleet"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/obsv"
	"k23/internal/pitfalls"
	"k23/internal/probe"
	"k23/internal/rr"
)

// Workload sizes. Each timed phase is whole rounds of a fixed job list;
// the sizes keep every job list's round well under the phase length.
const (
	// microIters are the two loop lengths of a micro job; the host-time
	// slope between them is the per-syscall cost (kernel.syscall_ns).
	microIters1 = 2_000
	microIters2 = 20_000
	// macroRequests is the keepalive connection length of a macro server
	// job; macroSqliteOps the sqlite operation count.
	macroRequests  = 150
	macroSqliteOps = 300
	// offlineRequests is the connection length of a server's K23
	// offline phase, as internal/bench profiles it.
	offlineRequests = 40
	// fleetMicroIters is the loop length of the fleet's micro machines.
	fleetMicroIters = 5_000
	// rrCheckpointEvery is the record workload's checkpoint interval in
	// virtual ticks.
	rrCheckpointEvery = 30_000
	// budget bounds every guest run, in instructions.
	budget = 200_000_000
	// fleetDeadline bounds one fleet batch in host time.
	fleetDeadline = 60 * time.Second
)

const (
	microPath = "/bench/micro"
	logDir    = "/var/k23/logs"
)

// probeProgram is the probe line the replay workload's retrace runs.
const probeProgram = `syscall:write:exit { hist(cycles) by (mech) }`

func workloads() []*workload {
	return []*workload{
		{name: "micro", pinned: true, jobs: microJobs},
		{name: "macro", pinned: true, jobs: macroJobs},
		{name: "matrix", pinned: true, jobs: matrixJobs},
		{name: "fleet", parallel: true, jobs: fleetJobs},
		{name: "record", jobs: recordJobs},
		{name: "replay", jobs: replayJobs},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// microMechs are the Table 5 rows: native and the eight variants.
func microMechs() []string { return append([]string{"native"}, bench.Table5Variants()...) }

// macroMechs are the macro workload's columns.
var macroMechs = []string{"native", "zpoline-default", "lazypoline", "k23-ultra+", "sud"}

// macroApp is one Table 6 application the macro workload serves.
type macroApp struct {
	name, path  string
	argv        []string
	offlineArgv []string
	requests    int // 0: runs to completion without a connection
}

var macroApps = []macroApp{
	{name: "redis", path: apps.RedisPath, argv: []string{"redis-server", "1"}, requests: macroRequests},
	{name: "nginx", path: apps.NginxPath, argv: []string{"nginx", "4"}, requests: macroRequests},
	{name: "lighttpd", path: apps.LighttpdPath, argv: []string{"lighttpd", "4"}, requests: macroRequests},
	{name: "sqlite", path: apps.SqlitePath, argv: []string{"sqlite3", strconv.Itoa(macroSqliteOps)},
		offlineArgv: []string{"sqlite3", "120"}},
}

// work is the number of requests or operations one job serves.
func (a macroApp) work() int {
	if a.requests > 0 {
		return a.requests
	}
	return macroSqliteOps
}

// coreutils are the non-server apps the fleet and rr workloads also run
// under interposers.
var coreutils = []string{"pwd", "touch", "ls", "cat", "clear"}

func spec(name string) (variants.Spec, error) {
	s, ok := variants.ByName(name)
	if !ok {
		return s, fmt.Errorf("unknown variant %q", name)
	}
	return s, nil
}

// mix derives the i-th input seed of a run.
func mix(seed uint64, i int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(i) + 1
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// microImage builds the Table 5 stress test: argv[1] iterations of the
// non-existent syscall 500.
func microImage() *image.Image {
	b := asm.NewBuilder(microPath)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R8, cpu.RSI, 8)
	t.Xor(cpu.RBX, cpu.RBX)
	t.Label(".pn_loop")
	t.LoadB(cpu.RCX, cpu.R8, 0)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".pn_done")
	t.MovImm32(cpu.R11, 10)
	t.Mul(cpu.RBX, cpu.R11)
	t.AddImm(cpu.RCX, -'0')
	t.Add(cpu.RBX, cpu.RCX)
	t.AddImm(cpu.R8, 1)
	t.Jmp(".pn_loop")
	t.Label(".pn_done")
	t.Label(".loop")
	t.MovImm32(cpu.RAX, bench.MicroSyscall)
	t.Syscall()
	t.AddImm(cpu.RBX, -1)
	t.Jnz(".loop")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b.MustBuild()
}

// worldInsts sums the guest instructions every thread of k retired.
func worldInsts(k *kernel.Kernel) uint64 {
	var n uint64
	for _, p := range k.Processes() {
		for _, t := range p.Threads {
			n += t.Core.Insts
		}
	}
	return n
}

// world accounts a finished simulated machine to the job: its retired
// instructions, its engine counters when tracing, and its heap in the
// reference pass.
func (c *jobCtx) world(k *kernel.Kernel) {
	c.insts += worldInsts(k)
	c.keep(k)
	if c.tr != nil {
		c.tr.stats.jit.Add(k.JITStats())
		c.tr.stats.dcache.Add(k.DecodeCacheStats())
	}
}

// countSyscalls installs a syscall-entry counter in the reference pass.
func (c *jobCtx) countSyscalls(k *kernel.Kernel) *uint64 {
	n := new(uint64)
	if c.ref {
		k.AddEventHook(func(e kernel.Event) {
			if e.Kind == kernel.EvEnter {
				*n++
			}
		})
	}
	return n
}

// offline runs the K23 offline phase for path in w and returns the log
// path. Servers get a constant connection of requests so the profiled run
// serves and exits, as internal/bench drives it.
func offline(w *interpose.World, path string, argv []string, requests int) (string, error) {
	off := &core.Offline{LogDir: logDir}
	run, err := off.Start(w, path, argv, nil)
	if err != nil {
		return "", err
	}
	if requests > 0 {
		if err := listen(w, run.Process(), make([]byte, apps.RequestSize), requests); err != nil {
			return "", err
		}
	}
	if err := w.K.RunUntilExit(run.Process(), budget); err != nil {
		return "", err
	}
	if _, err := run.Finish(); err != nil {
		return "", err
	}
	return off.LogPath(path[strings.LastIndexByte(path, '/')+1:]), nil
}

// listen waits for p's server to listen and queues one keepalive
// connection of requests copies of req.
func listen(w *interpose.World, p *kernel.Process, req []byte, requests int) error {
	port := apps.BasePort + p.PID
	for i := 0; i < rr.PollTries; i++ {
		w.K.Run(rr.PollSlice)
		if err := w.K.InjectConn(port, req, requests, nil); err == nil {
			return nil
		}
	}
	return fmt.Errorf("server on port %d never listened", port)
}

// boot builds a world prepared by setup and returns the launcher for s,
// running the K23 offline phase of path first when s needs its log.
func boot(c *jobCtx, s variants.Spec, setup func(*interpose.World) error,
	path string, offlineArgv []string, offlineRequests int) (*interpose.World, interpose.Launcher, error) {
	var w *interpose.World
	if err := c.step("interpose.boot", "", func() error {
		w = interpose.NewWorld()
		return setup(w)
	}); err != nil {
		return nil, nil, err
	}
	logPath := ""
	if s.NeedsOfflineLog {
		if err := c.step("core.offline", "", func() (err error) {
			logPath, err = offline(w, path, offlineArgv, offlineRequests)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	return w, s.New(interpose.Config{}, logPath), nil
}

// launch starts path under l; the launch_frac metrics key it by l's name.
func launch(c *jobCtx, w *interpose.World, l interpose.Launcher, path string, argv []string) (p *kernel.Process, err error) {
	err = c.step("launch", l.Name(), func() error {
		p, err = l.Launch(w, path, argv, nil)
		return err
	})
	return p, err
}

func microSetup(w *interpose.World) error { return w.Reg.Add(microImage()) }

func appSetup(w *interpose.World) error {
	apps.RegisterAll(w.Reg)
	return apps.SetupFS(w.K.FS)
}

// finish checks a guest run ended by exit and appends its result.
func (o *outcome) finish(p *kernel.Process, syscalls uint64) error {
	if p.Exit.Signal != 0 {
		return fmt.Errorf("%s %s", p.Path, p.Exit)
	}
	var steps, cycles uint64
	for _, t := range p.Threads {
		steps += t.Core.Insts
		cycles += t.Cycles()
	}
	o.Exit = append(o.Exit, p.Exit.Code)
	o.Steps = append(o.Steps, steps)
	o.Cycles = append(o.Cycles, cycles)
	o.Syscalls = append(o.Syscalls, syscalls)
	return nil
}

// micro: the Table 5 syscall loop under native and the eight variants.
func microJobs(*harness) ([]job, error) {
	var jobs []job
	for _, name := range microMechs() {
		s, err := spec(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{key: "micro/" + name, run: func(c *jobCtx) (outcome, error) {
			var out outcome
			w, l, err := boot(c, s, microSetup, microPath, []string{"micro", "50"}, 0)
			if err != nil {
				return out, err
			}
			defer c.world(w.K)
			syscalls := c.countSyscalls(w.K)
			for _, n := range []int{microIters1, microIters2} {
				arg := strconv.Itoa(n)
				p, err := launch(c, w, l, microPath, []string{"micro", arg})
				if err != nil {
					return out, err
				}
				before := *syscalls
				if err := c.step("kernel.run", arg, func() error { return w.K.RunUntilExit(p, budget) }); err != nil {
					return out, err
				}
				if err := out.finish(p, *syscalls-before); err != nil {
					return out, err
				}
			}
			if !c.ref {
				out.Syscalls = nil
			}
			return out, nil
		}})
	}
	return jobs, nil
}

// macro: four Table 6 servers under five mechanisms, one keepalive
// connection each.
func macroJobs(*harness) ([]job, error) {
	var jobs []job
	for _, a := range macroApps {
		for _, name := range macroMechs {
			s, err := spec(name)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job{key: "macro/" + a.name + "/" + name, run: func(c *jobCtx) (outcome, error) {
				var out outcome
				argv, requests := a.argv, offlineRequests
				if a.requests == 0 {
					argv, requests = a.offlineArgv, 0
				}
				w, l, err := boot(c, s, appSetup, a.path, argv, requests)
				if err != nil {
					return out, err
				}
				defer c.world(w.K)
				syscalls := c.countSyscalls(w.K)
				p, err := launch(c, w, l, a.path, a.argv)
				if err != nil {
					return out, err
				}
				if a.requests > 0 {
					err := c.step("kernel.listen", "", func() error {
						return listen(w, p, make([]byte, apps.RequestSize), a.requests)
					})
					if err != nil {
						return out, err
					}
				}
				if err := c.step("kernel.run", "", func() error { return w.K.RunUntilExit(p, budget) }); err != nil {
					return out, err
				}
				if _, served := w.K.ListenerStats(apps.BasePort + p.PID); served != a.requests {
					return out, fmt.Errorf("served %d of %d requests", served, a.requests)
				}
				if err := out.finish(p, *syscalls); err != nil {
					return out, err
				}
				if !c.ref {
					out.Syscalls = nil
				}
				return out, nil
			}})
		}
	}
	return jobs, nil
}

// matrix: the 27 Table 3 cells.
func matrixJobs(*harness) ([]job, error) {
	var jobs []job
	for _, poc := range pitfalls.All() {
		for _, s := range variants.Table3Columns() {
			jobs = append(jobs, job{key: "matrix/" + poc.ID + "/" + s.Name, run: func(c *jobCtx) (outcome, error) {
				var kernels []*kernel.Kernel
				capture := kernel.Option(func(k *kernel.Kernel) { kernels = append(kernels, k) })
				var handled bool
				var detail string
				err := c.step("pitfalls.cell", poc.ID, func() (err error) {
					handled, detail, err = poc.Run(s, capture)
					return err
				})
				for _, k := range kernels {
					c.world(k)
				}
				verdict := "no"
				if handled {
					verdict = "YES"
				}
				return outcome{Verdict: verdict, Detail: detail}, err
			}})
		}
	}
	return jobs, nil
}

// fleetMicroMechs are the mechanisms of the fleet's micro-loop machines.
var fleetMicroMechs = []string{"native", "zpoline-default", "lazypoline", "sud"}

// fleetMachines is the fleet batch: four micro-loop machines, the nine
// apps native, and the five coreutils under k23-ultra+ and sud. The micro
// machines come first so that none is the last on its worker, whose end
// the traced pass cannot see (fleetJobs). No server runs under a K23
// mechanism: its offline phase would poll accept until the budget runs
// out (see README.md).
func fleetMachines(seed uint64) []fleet.Machine {
	var ms []fleet.Machine
	for _, mech := range fleetMicroMechs {
		ms = append(ms, fleet.Machine{
			Name: "micro@" + mech, Path: microPath, Mechanism: mech,
			Argv:  []string{"micro", strconv.Itoa(fleetMicroIters)},
			Setup: microSetup,
		})
	}
	for _, w := range difftest.AppWorkloads() {
		ms = append(ms, fleet.Machine{Name: w.Name, Path: w.Path, Argv: w.Argv, Server: w.Server, Requests: w.Requests})
	}
	for _, mech := range []string{"k23-ultra+", "sud"} {
		for _, w := range difftest.AppWorkloads() {
			if slices.Contains(coreutils, w.Name) {
				ms = append(ms, fleet.Machine{Name: w.Name + "@" + mech, Path: w.Path, Argv: w.Argv, Mechanism: mech})
			}
		}
	}
	for i := range ms {
		ms[i].Seed = mix(seed, i)
		ms[i].MaxInsts = budget
	}
	return ms
}

// goroutineID returns the calling goroutine's id from its stack header,
// "goroutine 42 [running]:".
func goroutineID() string {
	var buf [32]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	if len(f) < 2 {
		return ""
	}
	return f[1]
}

// machineWalls turns each fleet machine's start time and worker into its
// wall time: until the next start on the same worker, or until end.
func machineWalls(start []time.Time, worker []string, end time.Time) []time.Duration {
	walls := make([]time.Duration, len(start))
	for i := range start {
		next := end
		for j := range start {
			if worker[j] == worker[i] && start[j].After(start[i]) && start[j].Before(next) {
				next = start[j]
			}
		}
		walls[i] = next.Sub(start[i])
	}
	return walls
}

// processCPU is the CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fleet: one fleet.Run batch per job. The reference pass runs it at one
// worker; every timed batch must reproduce it (the w1≡wN obligation).
func fleetJobs(b *harness) ([]job, error) {
	machines := fleetMachines(b.seed)
	return []job{{key: "fleet/batch", run: func(c *jobCtx) (outcome, error) {
		ms := machines
		var worlds []*interpose.World
		var start []time.Time
		var worker []string
		if c.ref || c.tr != nil {
			// The reference pass keeps every machine's world for the heap
			// measurement. The traced pass notes when and on which worker
			// each machine starts, because fleet.Result.Wall always reads
			// 0 (README.md, known issues): a machine runs until the next
			// start on its worker, or until the batch ends.
			ms = append([]fleet.Machine(nil), machines...)
			worlds = make([]*interpose.World, len(ms))
			start, worker = make([]time.Time, len(ms)), make([]string, len(ms))
			for i := range ms {
				setup := ms[i].Setup
				if setup == nil {
					setup = appSetup
				}
				ms[i].Setup = func(w *interpose.World) error {
					if c.ref {
						worlds[i] = w
					}
					if c.tr != nil {
						start[i], worker[i] = time.Now(), goroutineID()
					}
					return setup(w)
				}
			}
		}
		var rep *fleet.Report
		var cpu0, cpu1 time.Duration
		var end time.Time
		err := c.step("fleet.run", "", func() (err error) {
			ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
			defer cancel()
			cpu0 = processCPU()
			rep, err = fleet.Run(ctx, ms, fleet.Options{Workers: c.workers})
			cpu1, end = processCPU(), time.Now()
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		c.keep(worlds)
		c.insts += rep.TotalSteps()
		h := fnv.New64a()
		for i := range rep.Machines {
			m := &rep.Machines[i]
			if m.Err != "" {
				return outcome{}, fmt.Errorf("machine %s: %s", m.Name, m.Err)
			}
			if m.Exit.Signal != 0 {
				return outcome{}, fmt.Errorf("machine %s: %s", m.Name, m.Exit)
			}
			fmt.Fprintf(h, "%s %d %#x %#x %d %d %d\n", m.Name, m.Seed, m.EventHash, m.VFSHash, m.Steps, m.Syscalls, m.Exit.Code)
			if c.tr != nil {
				c.tr.stats.jit.Add(m.JIT)
				c.tr.stats.dcache.Add(m.DecodeCache)
			}
		}
		if c.tr != nil {
			for i, wall := range machineWalls(start, worker, end) {
				c.tr.stats.machines = append(c.tr.stats.machines, machine{job: c.tr.job, wall: wall,
					syscalls: rep.Machines[i].Syscalls, micro: ms[i].Path == microPath})
			}
			c.tr.stats.busy += cpu1 - cpu0
			c.tr.stats.capacity += time.Duration(rep.Workers) * rep.Wall
		}
		return outcome{Steps: []uint64{rep.TotalSteps()}, Syscalls: []uint64{rep.TotalSyscalls()},
			Digest: fmt.Sprintf("%016x", h.Sum64())}, nil
	}}}, nil
}

// rrSpecs are the record and replay workloads' runs: the nine apps native
// and the five coreutils under k23-ultra+, seeded from the run's seed.
func rrSpecs(seed uint64) []rr.RunSpec {
	var specs []rr.RunSpec
	add := func(w difftest.Workload, mech string) {
		name := w.Name
		if mech != "" {
			name += "@" + mech
		}
		specs = append(specs, rr.RunSpec{
			Name: name, Mechanism: mech, Path: w.Path, Argv: w.Argv,
			Server: w.Server, Requests: w.Requests,
			Seed: mix(seed, len(specs)), MaxInsts: budget, CheckpointEvery: rrCheckpointEvery,
		})
	}
	for _, w := range difftest.AppWorkloads() {
		add(w, "")
	}
	for _, w := range difftest.AppWorkloads() {
		if slices.Contains(coreutils, w.Name) {
			add(w, "k23-ultra+")
		}
	}
	return specs
}

// recordingDigest hashes what replay equivalence compares: checkpoints
// and final state.
func recordingDigest(r *rr.Recording) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%+v\n", r.Checkpoints, r.Final)
	return fmt.Sprintf("%016x", h.Sum64())
}

func checkFinal(f rr.Final) error {
	if f.ExitSignal != 0 {
		return fmt.Errorf("guest killed by signal %d", f.ExitSignal)
	}
	return nil
}

// record records sp and writes the recording out.
func record(c *jobCtx, sp rr.RunSpec) (*rr.Session, []byte, error) {
	var s *rr.Session
	err := c.step("rr.record", "", func() (err error) {
		s, err = rr.Record(sp, rr.Hooks{})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	if err := c.step("rr.run", "", s.Run); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := c.step("rr.write", "", func() error { return s.Rec.WriteJSONL(&buf) }); err != nil {
		return nil, nil, err
	}
	return s, buf.Bytes(), checkFinal(s.Rec.Final)
}

// record: rr.Record + Run + WriteJSONL per spec.
func recordJobs(b *harness) ([]job, error) {
	var jobs []job
	for _, sp := range rrSpecs(b.seed) {
		jobs = append(jobs, job{key: "record/" + sp.Name, run: func(c *jobCtx) (outcome, error) {
			s, data, err := record(c, sp)
			if err != nil {
				return outcome{}, err
			}
			c.world(s.W.K)
			c.keep(s)
			if c.tr != nil {
				c.tr.stats.checkpoints += s.NumCheckpoints()
				for _, ck := range s.Rec.Checkpoints {
					c.tr.stats.pagesCopied += ck.PagesCopied
				}
				c.tr.stats.recordingBytes += len(data)
			}
			f := s.Rec.Final
			return outcome{Exit: []int{f.ExitCode}, Steps: []uint64{f.Steps}, Syscalls: []uint64{f.Syscalls},
				Digest: recordingDigest(s.Rec)}, nil
		}})
	}
	return jobs, nil
}

// replay: read, validate, replay, seek and retrace the recordings the
// inputs step makes.
func replayJobs(b *harness) ([]job, error) {
	probes, err := obsv.CompileProbes(probeProgram)
	if err != nil {
		return nil, err
	}
	var jobs []job
	for _, sp := range rrSpecs(b.seed) {
		_, data, err := record(&jobCtx{}, sp)
		if err != nil {
			return nil, fmt.Errorf("record %s: %v", sp.Name, err)
		}
		mech := sp.Mechanism
		if mech == "" {
			mech = "native"
		}
		jobs = append(jobs, job{key: "replay/" + sp.Name, run: func(c *jobCtx) (outcome, error) {
			return replayJob(c, data, mech, probes)
		}})
	}
	return jobs, nil
}

func replayJob(c *jobCtx, data []byte, mech string, probes *probe.Compiled) (outcome, error) {
	var rec *rr.Recording
	err := c.step("rr.read", "", func() (err error) {
		rec, err = rr.ReadJSONL(bytes.NewReader(data))
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	if err := c.step("rr.validate", "", rec.Validate); err != nil {
		return outcome{}, err
	}
	if len(rec.Events) == 0 || len(rec.Checkpoints) == 0 {
		return outcome{}, errors.New("recording has no events or checkpoints")
	}
	var s *rr.Session
	if err := c.step("rr.replay", "", func() (err error) {
		s, err = rr.Replay(rec, rr.Hooks{})
		return err
	}); err != nil {
		return outcome{}, err
	}
	if err := c.step("rr.replay_run", "", s.Run); err != nil {
		return outcome{}, err
	}
	c.world(s.W.K)
	c.keep(s)
	if err := c.step("check", "", func() error {
		if i, diverged := s.Diverged(); diverged {
			return fmt.Errorf("replay diverged at checkpoint %d", i)
		}
		return s.Rec.EquivalentTo(rec)
	}); err != nil {
		return outcome{}, err
	}
	// Tail first: a forward SeekSeq after an earlier seek panics in
	// rr.Session.restoreTo (README.md, known issues).
	tail := rec.Events[len(rec.Events)-1].Seq
	mid := max(rec.Events[len(rec.Events)/2].Seq, rec.Checkpoints[0].Seq)
	var seeks []uint64
	for _, target := range []uint64{tail, mid} {
		var sk *rr.Seek
		if err := c.step("rr.seek", "", func() (err error) {
			sk, err = s.SeekSeq(target)
			return err
		}); err != nil {
			return outcome{}, err
		}
		if sk.Seq <= target {
			return outcome{}, fmt.Errorf("seek to %d stopped at %d", target, sk.Seq)
		}
		c.insts += sk.ReExecuted
		seeks = append(seeks, sk.Seq, sk.ReExecuted)
		if c.tr != nil {
			c.tr.stats.seekReexecuted += sk.ReExecuted
			c.tr.stats.seekBase += rec.Final.Steps
		}
	}
	var o *obsv.Observer
	var ts *rr.Session
	if err := c.step("obsv.retrace", "", func() (err error) {
		ts, err = rr.Retrace(rec, func(w *interpose.World) {
			o = obsv.New(obsv.Options{Metrics: true, Spans: true, Audit: true, Probes: probes, ProbeMech: mech})
			o.Install(w.K)
		})
		return err
	}); err != nil {
		return outcome{}, err
	}
	c.world(ts.W.K)
	snap := o.Snapshot()
	if err := ts.Rec.EquivalentTo(rec); err != nil {
		return outcome{}, fmt.Errorf("retrace: %v", err)
	}
	observed, err := json.Marshal(struct {
		Snapshot *obsv.Snapshot
		Probes   []*probe.Row
		Spans    int
	}{snap, snap.Probes.Rows, len(snap.Spans)})
	if err != nil {
		return outcome{}, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %v %s\n", recordingDigest(s.Rec), seeks, observed)
	f := s.Rec.Final
	return outcome{Exit: []int{f.ExitCode}, Steps: []uint64{f.Steps}, Syscalls: []uint64{f.Syscalls},
		Digest: fmt.Sprintf("%016x", h.Sum64())}, checkFinal(f)
}
