// Package chaos is the invariant harness for chaos mode (deterministic
// fault injection, internal/kernel/chaos.go). A sweep runs workloads
// under kernel.WithChaos across many seeds and checks the properties the
// injector is supposed to preserve:
//
//   - Replay: two runs with the same (seed, profile, workload) triple are
//     bit-identical — same instruction-trace hash, event stream, final
//     register files, outputs, VFS state and injection count.
//   - Convergence: the retry loops in internal/libc and the interposer
//     initializers absorb every injected fault, so guests still run to a
//     normal exit; batch workloads produce byte-identical outputs to a
//     chaos-free baseline.
//   - Interposition: the Table 3 pitfall-matrix verdicts are unchanged
//     under signal-wakeup chaos — EINTR storms must not open or close
//     interposition gaps.
//   - Fleet determinism: a chaos-armed fleet reports identical
//     per-machine results at any worker count.
//
// Violations carry the seed, so any failure reproduces with a single
// targeted rerun (see cmd/benchtab -chaos-sweep).
package chaos

import (
	"context"
	"fmt"

	"k23/internal/cpu/difftest"
	"k23/internal/fleet"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/machine"
	"k23/internal/pitfalls"
)

// Violation is one invariant breach found by a sweep.
type Violation struct {
	// Seed is the chaos seed that exposed the breach.
	Seed uint64
	// Area names the sweep ("apps", "matrix", "fleet").
	Area string
	// What describes the breach.
	What string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed %#x [%s]: %s", v.Seed, v.Area, v.What)
}

// Report aggregates one sweep.
type Report struct {
	// Seeds is the number of seeds swept.
	Seeds int
	// Runs counts workload executions performed.
	Runs int
	// Injected totals observed perturbations (0 where the run's kernels
	// are not inspectable, e.g. inside the pitfall PoCs).
	Injected uint64
	// Violations lists every invariant breach.
	Violations []Violation
}

// Merge folds other into r.
func (r *Report) Merge(other *Report) {
	r.Seeds += other.Seeds
	r.Runs += other.Runs
	r.Injected += other.Injected
	r.Violations = append(r.Violations, other.Violations...)
}

// Seeds derives n sweep seeds from base, deterministically.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	s := base
	for i := range out {
		s = machine.Splitmix64(s)
		out[i] = s
	}
	return out
}

// diffSnap returns the names of Snapshot fields that differ between two
// executions that must be bit-identical.
func diffSnap(a, b *difftest.Snapshot) []string {
	var out []string
	if a.TraceHash != b.TraceHash {
		out = append(out, "trace-hash")
	}
	if a.Steps != b.Steps {
		out = append(out, "steps")
	}
	if len(a.Events) != len(b.Events) {
		out = append(out, "event-count")
	} else {
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				out = append(out, fmt.Sprintf("event[%d]", i))
				break
			}
		}
	}
	if len(a.Threads) != len(b.Threads) {
		out = append(out, "thread-count")
	} else {
		for i := range a.Threads {
			if a.Threads[i] != b.Threads[i] {
				out = append(out, fmt.Sprintf("thread[%d]", i))
				break
			}
		}
	}
	if a.Stdout != b.Stdout {
		out = append(out, "stdout")
	}
	if a.Stderr != b.Stderr {
		out = append(out, "stderr")
	}
	if a.Exit != b.Exit {
		out = append(out, "exit")
	}
	if a.VFSHash != b.VFSHash {
		out = append(out, "vfs-hash")
	}
	if a.ChaosInjected != b.ChaosInjected {
		out = append(out, "chaos-injected")
	}
	return out
}

// sweepApps runs every app workload under chaos for each seed, twice,
// asserting replay determinism and convergence. Batch workloads (no
// injected connections) must additionally match the chaos-free baseline
// byte for byte: the libc retry loops make transient faults invisible.
// Server workloads legitimately take extra serve iterations under short
// reads, so for them convergence means a clean exit (no signal, no
// harness error) with at least the baseline's request count served.
func sweepApps(seeds []uint64, prof kernel.ChaosProfile) (*Report, error) {
	rep := &Report{Seeds: len(seeds)}
	workloads := difftest.AppWorkloads()

	base := make(map[string]*difftest.Snapshot, len(workloads))
	for _, w := range workloads {
		snap, err := difftest.Run(w)
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline %s: %w", w.Name, err)
		}
		base[w.Name] = snap
	}

	for _, seed := range seeds {
		for _, w := range workloads {
			runs := [2]*difftest.Snapshot{}
			failed := false
			for i := range runs {
				snap, err := difftest.Run(w, kernel.WithChaos(seed, prof))
				rep.Runs++
				if err != nil {
					rep.Violations = append(rep.Violations, Violation{
						Seed: seed, Area: "apps",
						What: fmt.Sprintf("%s did not converge: %v", w.Name, err),
					})
					failed = true
					break
				}
				runs[i] = snap
			}
			if failed {
				continue
			}
			rep.Injected += runs[0].ChaosInjected
			if diffs := diffSnap(runs[0], runs[1]); len(diffs) != 0 {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "apps",
					What: fmt.Sprintf("%s replay diverged: %v", w.Name, diffs),
				})
				continue
			}
			b := base[w.Name]
			if runs[0].Exit.Signal != 0 {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "apps",
					What: fmt.Sprintf("%s died with signal %d under chaos", w.Name, runs[0].Exit.Signal),
				})
				continue
			}
			if w.Server {
				if runs[0].Exit.Code < b.Exit.Code {
					rep.Violations = append(rep.Violations, Violation{
						Seed: seed, Area: "apps",
						What: fmt.Sprintf("%s served %d requests, baseline %d: requests lost",
							w.Name, runs[0].Exit.Code, b.Exit.Code),
					})
				}
				continue
			}
			if runs[0].Exit != b.Exit || runs[0].Stdout != b.Stdout ||
				runs[0].Stderr != b.Stderr || runs[0].VFSHash != b.VFSHash {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "apps",
					What: fmt.Sprintf("%s output differs from chaos-free baseline (exit %+v vs %+v)",
						w.Name, runs[0].Exit, b.Exit),
				})
			}
		}
	}
	return rep, nil
}

// sweepMatrix replays the full Table 3 pitfall matrix under chaos for
// each seed and asserts every verdict matches the chaos-free baseline:
// signal-wakeup storms must neither mask a pitfall (a bypass suddenly
// "handled") nor break an interposer (a handled case suddenly failing).
// Use SignalChaosProfile here — the PoC attack payloads deliberately
// issue raw retry-less syscalls, so resource-errno injection would change
// what they do rather than when.
func sweepMatrix(seeds []uint64, prof kernel.ChaosProfile) (*Report, error) {
	rep := &Report{Seeds: len(seeds)}
	specs := variants.Table3Columns()
	baseline, err := pitfalls.Matrix(context.Background(), specs)
	if err != nil {
		return nil, fmt.Errorf("chaos: baseline matrix: %w", err)
	}

	for _, seed := range seeds {
		res, err := pitfalls.Matrix(context.Background(), specs, kernel.WithChaos(seed, prof))
		rep.Runs++
		if err != nil {
			rep.Violations = append(rep.Violations, Violation{
				Seed: seed, Area: "matrix",
				What: fmt.Sprintf("matrix run failed: %v", err),
			})
			continue
		}
		if len(res) != len(baseline) {
			rep.Violations = append(rep.Violations, Violation{
				Seed: seed, Area: "matrix",
				What: fmt.Sprintf("matrix size %d, baseline %d", len(res), len(baseline)),
			})
			continue
		}
		for i := range res {
			if res[i].Handled != baseline[i].Handled {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "matrix",
					What: fmt.Sprintf("%s under %s flipped: handled=%v, baseline %v",
						res[i].Pitfall, res[i].Interposer, res[i].Handled, baseline[i].Handled),
				})
			}
		}
	}
	return rep, nil
}

// sweepFleet runs a chaos-armed standard fleet once per seed at two
// worker counts and asserts identical per-machine results: the injector
// is instance-local state, so concurrency must not leak into outcomes.
func sweepFleet(seeds []uint64, machines, workersA, workersB int, prof kernel.ChaosProfile) (*Report, error) {
	rep := &Report{Seeds: len(seeds)}
	ms := fleet.StandardFleet(machines)

	for _, seed := range seeds {
		run := func(workers int) (*fleet.Report, error) {
			rep.Runs++
			return fleet.Run(context.Background(), ms, fleet.Options{
				Workers: workers, Hash: true, Chaos: &prof, ChaosSeed: seed,
			})
		}
		ra, err := run(workersA)
		if err != nil {
			return nil, fmt.Errorf("chaos: fleet workers=%d: %w", workersA, err)
		}
		rb, err := run(workersB)
		if err != nil {
			return nil, fmt.Errorf("chaos: fleet workers=%d: %w", workersB, err)
		}
		for i := range ra.Machines {
			a, b := &ra.Machines[i], &rb.Machines[i]
			rep.Injected += a.ChaosInjected
			if a.Err != "" {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "fleet",
					What: fmt.Sprintf("machine %s did not converge: %s", a.Name, a.Err),
				})
				continue
			}
			if a.Outcome != b.Outcome {
				rep.Violations = append(rep.Violations, Violation{
					Seed: seed, Area: "fleet",
					What: fmt.Sprintf("machine %s differs between workers=%d and workers=%d",
						a.Name, workersA, workersB),
				})
			}
		}
	}
	return rep, nil
}

// Sweep runs all three sweeps over the same seed list and merges the
// reports: the full invariant battery for one seed set.
func Sweep(seeds []uint64, machines int) (*Report, error) {
	rep := &Report{}
	apps, err := sweepApps(seeds, kernel.DefaultChaosProfile())
	if err != nil {
		return nil, err
	}
	rep.Merge(apps)
	matrix, err := sweepMatrix(seeds, kernel.SignalChaosProfile())
	if err != nil {
		return nil, err
	}
	rep.Merge(matrix)
	flt, err := sweepFleet(seeds, machines, 1, 8, kernel.DefaultChaosProfile())
	if err != nil {
		return nil, err
	}
	rep.Merge(flt)
	// Seeds were shared across the three sweeps: count them once.
	rep.Seeds = len(seeds)
	return rep, nil
}
