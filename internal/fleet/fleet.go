// Package fleet is a worker pool over machine.Start: it runs N
// independent simulated machines across a bounded pool of host worker
// goroutines, with per-machine deterministic seeds, per-machine
// statistics, and context-based cancellation so one wedged guest cannot
// stall the pool. Everything a machine run can carry besides the pool's
// own knobs (collectors, probes, SFIP policies) rides in Options.Obs;
// recording a run is internal/rr's business, not the pool's.
//
// The package's correctness contract is the no-shared-state invariant:
// two Worlds never alias mutable state, so running machines concurrently
// is race-free by construction and — because each machine is itself a
// deterministic single-goroutine simulation — every machine's
// machine.Outcome is identical regardless of the worker count. The fleet
// determinism tests and `go test -race ./...` enforce both halves.
package fleet

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"k23/internal/cpu"
	"k23/internal/cpu/difftest"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/machine"
	"k23/internal/obsv"
)

// Machine describes one simulated machine: a program to boot and the
// seed that individualizes the machine deterministically.
type Machine struct {
	// Name identifies the machine in reports (unique names recommended).
	Name string
	// Seed individualizes the machine: it derives the kernel's initial
	// virtual clock (shifting gettimeofday/getrandom streams) and the
	// injected request payload for server workloads. The same seed always
	// produces the same machine.
	Seed uint64
	// Path and Argv name the program to boot.
	Path string
	Argv []string
	// Mechanism, when non-empty, boots the machine under the named
	// interposer variant (variants.ByName) instead of natively, running
	// the variant's offline phase on the same machine first when it
	// needs a log. An SFIP policy (Options.Obs.SfipPolicy) only bites on
	// interposed machines: native machines never issue trap-origin
	// syscalls.
	Mechanism string
	// Server marks a workload driven by an injected client connection.
	Server bool
	// Requests is the number of requests per injected connection
	// (servers only).
	Requests int
	// MaxInsts bounds the run; 0 means machine.DefaultMaxInsts.
	MaxInsts uint64
	// Setup, if non-nil, replaces the default world preparation
	// (apps.RegisterAll + apps.SetupFS). It must be self-contained: it
	// may not capture mutable state shared with any other machine.
	Setup func(w *interpose.World) error
}

// Result is the observable outcome and statistics of one machine.
type Result struct {
	Name string
	Seed uint64
	// Outcome is the machine's observable result from the attach point
	// on (a K23 machine's offline phase is not part of it); its
	// TraceHash is 0 unless Options.Hash was set.
	machine.Outcome
	// DecodeCache aggregates decode-cache counters over every core.
	DecodeCache cpu.DecodeCacheStats
	// JIT aggregates superblock-engine counters over every core.
	JIT cpu.JITStats
	// Wall is the host wall-clock time this machine took.
	Wall time.Duration
	// Err is a machine-level failure (spawn error, budget exhaustion,
	// cancellation), as a string so Results compare with ==.
	Err string
	// Obs carries the machine's observability snapshot (flight-recorder
	// trace, metrics, profile, probes, SFIP report), nil unless
	// Options.Obs enabled a collector. Each machine owns its Observer —
	// the no-shared-state invariant — and snapshots are merged only at
	// report time.
	Obs *obsv.Snapshot
}

// Options configures a fleet run.
type Options struct {
	// Workers bounds the worker pool; <=0 means GOMAXPROCS.
	Workers int
	// Hash enables per-instruction trace hashing (Result.TraceHash).
	// It costs a function call per retired instruction, so throughput
	// benchmarks leave it off; determinism tests turn it on.
	Hash bool
	// Obs selects the observability collectors every machine gets (the
	// zero value installs nothing). Each machine builds its own Observer
	// from it, with Machine set to the machine's name and ProbeMech to
	// its mechanism; the shared read-only parts (a compiled probe
	// program, an SFIP policy) are never written, so probe output and
	// enforcement reports are bit-identical at any worker count.
	Obs obsv.Options
	// Chaos, when non-nil, arms deterministic fault injection on every
	// machine. Each machine's injector seed is derived from its own
	// Machine.Seed xor ChaosSeed, so a fleet replays bit-identically at
	// any worker count and two sweeps with different ChaosSeed values
	// explore different perturbation schedules.
	Chaos *kernel.ChaosProfile
	// ChaosSeed salts the per-machine chaos seed derivation.
	ChaosSeed uint64
}

// Report aggregates a fleet run.
type Report struct {
	Workers  int
	Machines []Result
	// Wall is the whole-fleet host wall-clock time.
	Wall time.Duration
}

// TotalSteps sums retired instructions over the fleet.
func (r *Report) TotalSteps() uint64 {
	var n uint64
	for i := range r.Machines {
		n += r.Machines[i].Steps
	}
	return n
}

// TotalSyscalls sums syscall counts over the fleet.
func (r *Report) TotalSyscalls() uint64 {
	var n uint64
	for i := range r.Machines {
		n += r.Machines[i].Syscalls
	}
	return n
}

// MergedObs folds every machine's observability snapshot into one
// fleet-wide view: histograms add bucketwise, mechanism and decode-cache
// counters sum, traces concatenate in machine order. Returns nil when no
// machine collected anything.
func (r *Report) MergedObs() *obsv.Snapshot {
	var merged *obsv.Snapshot
	for i := range r.Machines {
		if r.Machines[i].Obs == nil {
			continue
		}
		if merged == nil {
			merged = &obsv.Snapshot{}
		}
		merged.Merge(r.Machines[i].Obs)
	}
	return merged
}

// FirstErr returns the first machine error in fleet order, if any.
func (r *Report) FirstErr() error {
	for i := range r.Machines {
		if r.Machines[i].Err != "" {
			return fmt.Errorf("fleet: machine %s: %s", r.Machines[i].Name, r.Machines[i].Err)
		}
	}
	return nil
}

// Format renders the per-machine table and the aggregate line. Every
// column is simulated, so the output depends only on the machines and
// the worker count, never on host speed.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-12s %-10s %-9s %-10s %s\n",
		"Machine", "steps", "syscalls", "hit-rate", "exit", "err")
	for i := range r.Machines {
		m := &r.Machines[i]
		exit := "-"
		if m.Err == "" {
			exit = fmt.Sprintf("code=%d", m.Exit.Code)
			if m.Exit.Signal != 0 {
				exit = fmt.Sprintf("sig=%d", m.Exit.Signal)
			}
		}
		fmt.Fprintf(&b, "%-20s %-12d %-10d %-9s %-10s %s\n",
			m.Name, m.Steps, m.Syscalls,
			fmt.Sprintf("%.1f%%", m.DecodeCache.HitRate()*100), exit, m.Err)
	}
	fmt.Fprintf(&b, "fleet: %d machines, %d workers, %d steps, %d syscalls\n",
		len(r.Machines), r.Workers, r.TotalSteps(), r.TotalSyscalls())
	return b.String()
}

// Run executes the fleet across the worker pool and returns the report.
// Results are indexed in machine order regardless of completion order.
// Cancelling the context stops every machine at its next check point;
// cancelled machines report Err = context.Canceled's message.
func Run(ctx context.Context, machines []Machine, opt Options) (*Report, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("fleet: no machines")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(machines) {
		workers = len(machines)
	}

	results := make([]Result, len(machines))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runMachine(ctx, machines[i], opt)
			}
		}()
	}
	start := time.Now()
	for i := range machines {
		idx <- i
	}
	close(idx)
	wg.Wait()

	return &Report{
		Workers:  workers,
		Machines: results,
		Wall:     time.Since(start),
	}, nil
}

// runMachine boots and drives one machine to completion on the calling
// goroutine through the machine runner. Everything it touches is private
// to the machine's World.
func runMachine(ctx context.Context, m Machine, opt Options) (res Result) {
	res = Result{Name: m.Name, Seed: m.Seed}
	start := time.Now()
	defer func() { res.Wall = time.Since(start) }()
	if err := ctx.Err(); err != nil {
		res.Err = err.Error()
		return res
	}
	spec := machine.Spec{
		Name: m.Name, Mechanism: m.Mechanism, Path: m.Path, Argv: m.Argv,
		Server: m.Server, Requests: m.Requests,
		Seed: m.Seed, MaxInsts: m.MaxInsts,
		Chaos: opt.Chaos, ChaosSeed: opt.ChaosSeed,
	}
	oo := opt.Obs
	oo.Machine = m.Name
	oo.ProbeMech = spec.Mech()
	var obs *obsv.Observer
	r, err := machine.Start(ctx, spec, machine.Config{Setup: m.Setup, Attach: func(r *machine.Run) {
		if opt.Hash {
			r.HashTrace()
		}
		if oo.Enabled() {
			obs = obsv.New(oo)
			obs.Install(r.W.K)
		}
	}})
	if err == nil {
		err = r.Drive(ctx, 0)
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Outcome = r.Outcome()
	res.DecodeCache = r.W.K.DecodeCacheStats()
	res.JIT = r.W.K.JITStats()
	if obs != nil {
		res.Obs = obs.Snapshot()
	}
	return res
}

// StandardFleet builds n machines cycling through the app workload
// matrix (the Table 2 set), seeded deterministically: machine i always
// gets the same workload and seed, so any prefix of the fleet is a
// stable regression surface.
func StandardFleet(n int) []Machine {
	base := difftest.AppWorkloads()
	out := make([]Machine, 0, n)
	for i := 0; i < n; i++ {
		w := base[i%len(base)]
		out = append(out, Machine{
			Name:     fmt.Sprintf("%s-%02d", w.Name, i),
			Seed:     uint64(i)*0x9e3779b97f4a7c15 + 1,
			Path:     w.Path,
			Argv:     w.Argv,
			Server:   w.Server,
			Requests: w.Requests,
		})
	}
	return out
}
