package fleet

import (
	"context"
	"reflect"
	"testing"

	"k23/internal/apps"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/machine"
	"k23/internal/obsv"
	"k23/internal/rr"
	"k23/internal/sfip"
)

// sfipMachines builds a small interposed fleet (SFIP only bites on
// trap-origin syscalls, so the machines boot under a real interposer,
// not natively). The mechanism must be fully covering — under a leaky
// one like zpoline-ultra, startup-window calls are trap-origin escapes,
// which the learner refuses by design, so even self-training trips
// enforcement. Non-server workloads keep the offline phases short.
func sfipMachines() []Machine {
	return []Machine{
		{Name: "cat-0", Seed: 11, Path: apps.CatPath, Argv: []string{"cat", "/data/notes.txt"}, Mechanism: "k23-ultra+"},
		{Name: "ls-0", Seed: 22, Path: apps.LsPath, Argv: []string{"ls", "/data"}, Mechanism: "k23-ultra+"},
		{Name: "pwd-0", Seed: 33, Path: apps.PwdPath, Argv: []string{"pwd"}, Mechanism: "k23-ultra+"},
	}
}

// learnPolicies trains one policy per machine at the given worker count.
func learnPolicies(t *testing.T, workers int) map[string]*sfip.Policy {
	t.Helper()
	machines := sfipMachines()
	rep, err := Run(context.Background(), machines,
		Options{Workers: workers, Hash: true, Obs: obsv.Options{SfipLearn: true}})
	if err != nil {
		t.Fatalf("learn fleet (workers=%d): %v", workers, err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatalf("learn fleet (workers=%d): %v", workers, err)
	}
	out := map[string]*sfip.Policy{}
	for i := range rep.Machines {
		m := &rep.Machines[i]
		if m.Obs == nil || m.Obs.SfipPolicy == nil {
			t.Fatalf("machine %s: no learned policy in the snapshot", m.Name)
		}
		if want := (machine.Spec{Mechanism: machines[i].Mechanism}).Mech(); m.Obs.SfipPolicy.Mech != want {
			t.Errorf("machine %s: learned policy mech %q, want %q", m.Name, m.Obs.SfipPolicy.Mech, want)
		}
		out[m.Name] = m.Obs.SfipPolicy
	}
	return out
}

// TestFleetSfipLearnDeterminism: the policy a machine learns is a pure
// function of the machine — hash-identical at workers=1 and workers=8 —
// and interposed machines actually learn something (native machines
// would learn nothing: no trap-origin syscalls).
func TestFleetSfipLearnDeterminism(t *testing.T) {
	serial := learnPolicies(t, 1)
	parallel := learnPolicies(t, 8)
	for name, p := range serial {
		if p.Origins() == 0 || p.Edges() == 0 {
			t.Errorf("machine %s: learned an empty policy (%d origins, %d edges)", name, p.Origins(), p.Edges())
		}
		q, ok := parallel[name]
		if !ok {
			t.Fatalf("machine %s missing from the parallel run", name)
		}
		if p.Hash() != q.Hash() {
			t.Errorf("machine %s: policy hash %#x at workers=1 vs %#x at workers=8", name, p.Hash(), q.Hash())
		}
	}
}

// fleetPolicy merges the policies the machines learned into the one
// fleet-wide policy Options.Obs.SfipPolicy installs on every machine. A
// merged policy allows what any machine learned, so each self-trained
// machine still runs violation-free under it.
func fleetPolicy(t *testing.T) *sfip.Policy {
	t.Helper()
	p := sfip.NewPolicy("fleet", "k23-ultra+")
	for _, q := range learnPolicies(t, 8) {
		p.Merge(q)
	}
	return p
}

// TestFleetSfipEnforceDeterminism: a fleet-wide policy installed via
// Options.Obs is checked deterministically — self-trained machines run
// violation-free in enforce mode, with bit-identical enforcement reports
// at workers=1 and workers=8 — and log mode is non-perturbing: on a
// violation-free run, every observable hash matches an unpoliced run of
// the same machines exactly.
func TestFleetSfipEnforceDeterminism(t *testing.T) {
	machines := sfipMachines()
	policy := fleetPolicy(t)

	run := func(workers int, mode sfip.Mode) *Report {
		rep, err := Run(context.Background(), machines, Options{
			Workers: workers, Hash: true,
			Obs: obsv.Options{SfipPolicy: policy, SfipMode: mode},
		})
		if err != nil {
			t.Fatalf("enforce fleet (workers=%d mode=%s): %v", workers, mode, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("enforce fleet (workers=%d mode=%s): %v", workers, mode, err)
		}
		return rep
	}

	serial := run(1, sfip.ModeEnforce)
	parallel := run(8, sfip.ModeEnforce)
	for i := range serial.Machines {
		s, p := &serial.Machines[i], &parallel.Machines[i]
		if s.Obs == nil || s.Obs.Sfip == nil {
			t.Fatalf("machine %s: no enforcement report", s.Name)
		}
		if s.Obs.Sfip.Checked == 0 {
			t.Errorf("machine %s: enforcer checked nothing", s.Name)
		}
		if s.Obs.Sfip.Violations != 0 || s.Obs.Sfip.Denied != 0 {
			t.Errorf("machine %s: self-trained policy tripped: %d violations, %d denied",
				s.Name, s.Obs.Sfip.Violations, s.Obs.Sfip.Denied)
		}
		if !reflect.DeepEqual(s.Obs.Sfip, p.Obs.Sfip) {
			t.Errorf("machine %s: enforcement report differs between workers=1 and workers=8", s.Name)
		}
		if s.Outcome != p.Outcome {
			t.Errorf("machine %s: enforced run not bit-identical across worker counts", s.Name)
		}
	}

	// Log mode on the same violation-free machines perturbs nothing.
	plain, err := Run(context.Background(), machines, Options{Workers: 8, Hash: true})
	if err != nil {
		t.Fatalf("unpoliced fleet: %v", err)
	}
	logged := run(8, sfip.ModeLog)
	for i := range plain.Machines {
		u, l := &plain.Machines[i], &logged.Machines[i]
		if u.Outcome != l.Outcome {
			t.Errorf("machine %s: log-mode SFIP perturbed execution:\n unpoliced %+v\n logged    %+v",
				u.Name, u.Outcome, l.Outcome)
		}
	}
}

// TestFleetSfipChaosReplayStable: with deterministic fault injection
// armed, a policed fleet is a pure function of (machines, policy, chaos
// seed) — identical outcomes and enforcement reports across worker
// counts, for two distinct chaos seeds — and a policed chaos run
// recorded through rr replays bit-identically with the enforcer's host
// state verified through the kernel state hash.
func TestFleetSfipChaosReplayStable(t *testing.T) {
	machines := sfipMachines()
	policy := fleetPolicy(t)
	prof := kernel.DefaultChaosProfile()
	// Log mode: chaos retry loops may walk off a policy learned without
	// chaos, and replay stability must hold through the violations
	// themselves, not dodge them by denial.
	policed := obsv.Options{SfipPolicy: policy, SfipMode: sfip.ModeLog}

	run := func(seed uint64, workers int) []Result {
		rep, err := Run(context.Background(), machines, Options{
			Workers: workers, Hash: true, Obs: policed,
			Chaos: &prof, ChaosSeed: seed,
		})
		if err != nil {
			t.Fatalf("chaos fleet (seed=%#x workers=%d): %v", seed, workers, err)
		}
		if err := rep.FirstErr(); err != nil {
			t.Fatalf("chaos fleet (seed=%#x workers=%d): %v", seed, workers, err)
		}
		return normalize(rep)
	}

	for _, seed := range []uint64{3, 7} {
		serial := run(seed, 1)
		parallel := run(seed, 8)
		for i := range serial {
			s, p := &serial[i], &parallel[i]
			if s.Outcome != p.Outcome {
				t.Errorf("seed %#x machine %s: policed chaos run differs across worker counts", seed, s.Name)
			}
			if !reflect.DeepEqual(s.Obs.Sfip, p.Obs.Sfip) {
				t.Errorf("seed %#x machine %s: enforcement report differs across worker counts", seed, s.Name)
			}
		}

		// Record the first machine with the same policy and chaos seed,
		// and replay it with the policy attached again: the rr engine
		// re-checks every checkpoint's kernel state hash, which folds in
		// the enforcer's predecessor chains and counters.
		m := machines[0]
		spec := machine.Spec{Name: m.Name, Mechanism: m.Mechanism, Path: m.Path, Argv: m.Argv,
			Seed: m.Seed, Chaos: &prof, ChaosSeed: seed}
		hooks := rr.Hooks{BeforeLaunch: func(w *interpose.World) {
			o := policed
			o.Machine = m.Name
			obsv.New(o).Install(w.K)
		}}
		rec, err := rr.Record(spec, hooks)
		if err != nil {
			t.Fatalf("seed %#x: record setup: %v", seed, err)
		}
		if err := rec.Run(); err != nil {
			t.Fatalf("seed %#x: record run: %v", seed, err)
		}
		if f := rec.Rec.Final; f.TraceHash != serial[0].TraceHash || f.EventHash != serial[0].EventHash {
			t.Errorf("seed %#x machine %s: recorded run differs from the fleet's", seed, m.Name)
		}
		s, err := rr.Replay(rec.Rec, hooks)
		if err != nil {
			t.Fatalf("seed %#x: replay setup: %v", seed, err)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %#x: replay run: %v", seed, err)
		}
		if i, diverged := s.Diverged(); diverged {
			t.Errorf("seed %#x machine %s: policed replay diverged at checkpoint %d", seed, m.Name, i)
		}
	}
}
