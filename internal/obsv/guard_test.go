package obsv_test

import (
	"context"
	"strings"
	"testing"

	"k23/internal/fleet"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/probe"
)

// TestEventKindNamesExhaustive guards the event-kind naming table:
// adding a kernel.EventKind without teaching String()/EventKindByName
// about it silently breaks JSONL schema validation and the audit
// stream, so every kind must have a unique, round-trippable name.
func TestEventKindNamesExhaustive(t *testing.T) {
	seen := map[string]kernel.EventKind{}
	for k := kernel.EvEnter; int(k) < kernel.NumEventKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("EventKind %d has no name — extend EventKind.String", k)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("EventKind %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		back, ok := kernel.EventKindByName(name)
		if !ok || back != k {
			t.Errorf("EventKindByName(%q) = (%d, %v), want (%d, true)", name, back, ok, k)
		}
	}
	if _, ok := kernel.EventKindByName("no-such-kind"); ok {
		t.Error("EventKindByName accepted a bogus name")
	}
}

// TestProbeAttachCoversEventKinds guards the probe DSL's attach-point
// tables the same way: a new kernel.EventKind or kernel.Phase without a
// probe binding would make that event silently unobservable from probe
// programs. Every kind/phase must map to an attach spelling that
// actually parses and compiles.
func TestProbeAttachCoversEventKinds(t *testing.T) {
	if len(probe.EventKindAttach) != kernel.NumEventKinds {
		t.Errorf("EventKindAttach has %d entries, want %d — new event kind without a probe attach point",
			len(probe.EventKindAttach), kernel.NumEventKinds)
	}
	for k := kernel.EventKind(0); int(k) < kernel.NumEventKinds; k++ {
		spec, ok := probe.EventKindAttach[k]
		if !ok {
			t.Errorf("EventKind %s (%d) has no probe attach point", k, k)
			continue
		}
		if _, err := obsv.CompileProbes(spec + " { count() }"); err != nil {
			t.Errorf("EventKind %s attach %q does not compile: %v", k, spec, err)
		}
	}
	// PhUnknown is deliberately unbound (the kernel never emits it); all
	// real phases must be probeable.
	if len(probe.PhaseAttach) != kernel.NumPhases-1 {
		t.Errorf("PhaseAttach has %d entries, want %d — new phase without a probe attach point",
			len(probe.PhaseAttach), kernel.NumPhases-1)
	}
	for p := kernel.PhUnknown + 1; int(p) < kernel.NumPhases; p++ {
		spec, ok := probe.PhaseAttach[p]
		if !ok {
			t.Errorf("Phase %s (%d) has no probe attach point", p, p)
			continue
		}
		if _, err := obsv.CompileProbes(spec + " { count() }"); err != nil {
			t.Errorf("Phase %s attach %q does not compile: %v", p, spec, err)
		}
	}
}

// TestSyscallNrByNameRoundTrips guards the probe attach resolver: every
// name the metrics/strace layer can render must resolve back to its
// number, including the syscall_N fallback spelling, or probe programs
// could not attach to syscalls that traces display.
func TestSyscallNrByNameRoundTrips(t *testing.T) {
	nrs := []uint64{500}
	for _, sc := range kernel.Syscalls {
		nrs = append(nrs, sc.Nr)
	}
	for _, nr := range nrs {
		name := kernel.SyscallName(nr)
		back, ok := kernel.SyscallNrByName(name)
		if !ok || back != nr {
			t.Errorf("SyscallNrByName(%q) = (%d, %v), want (%d, true)", name, back, ok, nr)
		}
	}
	if _, ok := kernel.SyscallNrByName("no_such_syscall"); ok {
		t.Error("SyscallNrByName accepted a bogus name")
	}
}

// TestSyscallNamesCoverAppWorkloads guards the kernel's syscall table
// against drift in internal/apps: every syscall number any standard
// workload actually executes must have a real Linux name, not the
// "syscall_N" fallback — unnamed numbers would corrupt metric labels,
// audit coverage matrices, and the strace renderer. The workloads run
// through the fleet executor so the server apps (nginx, lighttpd,
// redis) get request traffic and exercise their full syscall surface.
func TestSyscallNamesCoverAppWorkloads(t *testing.T) {
	machines := fleet.StandardFleet(9) // one of each difftest app workload
	rep, err := fleet.Run(context.Background(), machines,
		fleet.Options{Workers: 4, Obs: obsv.Options{Metrics: true}})
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range rep.Machines {
		m := &rep.Machines[i]
		if m.Obs == nil || m.Obs.Metrics == nil {
			t.Fatalf("machine %s: no metrics", m.Name)
		}
		for _, sc := range m.Obs.Metrics.Syscalls {
			total++
			if strings.HasPrefix(sc.Name, "syscall_") {
				t.Errorf("machine %s executes syscall %d with no row in kernel.Syscalls",
					m.Name, sc.Nr)
			}
			if got := kernel.SyscallName(sc.Nr); got != sc.Name {
				t.Errorf("metrics name %q disagrees with SyscallName(%d) = %q", sc.Name, sc.Nr, got)
			}
		}
	}
	if total == 0 {
		t.Fatal("no syscalls observed across the standard fleet")
	}
}
