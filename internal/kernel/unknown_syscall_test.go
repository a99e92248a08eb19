package kernel_test

import (
	"reflect"
	"testing"

	"k23/internal/kernel"
)

// TestUnknownSyscallVisibility pins the EvUnknownSyscall contract: every
// path that rejects a syscall with ENOSYS — an unknown number, the
// unmodelled ptrace/process_vm_readv stubs, and execve with no exec
// handler installed — must publish a visibility event naming the number,
// the site and why, carrying the errno it is about to return. Without
// the event, an interposer-escaped *unknown* syscall is invisible to the
// audit ledger and the SFIP learner: the ground-truth oracle alone does
// not say why the call failed.
func TestUnknownSyscallVisibility(t *testing.T) {
	k, p, mt, scratch := confWorld(t)

	// Two sinks see every event in subscription order, with one Seq.
	type seen struct {
		sink int
		seq  uint64
	}
	var events []kernel.Event
	var order []seen
	k.OnEvent(func(e *kernel.Event) {
		order = append(order, seen{1, e.Seq})
		if e.Kind == kernel.EvUnknownSyscall {
			events = append(events, *e)
		}
	})
	k.OnEvent(func(e *kernel.Event) { order = append(order, seen{2, e.Seq}) })

	// Detach any exec handler the loader installed so execve takes the
	// no-handler rejection path.
	k.Exec = nil
	putString(t, p, scratch, "/bin/conf")

	calls := []struct {
		name string
		nr   uint64
		args [6]uint64
	}{
		{"nr-500", 500, [6]uint64{}},
		{"ptrace", kernel.SysPtrace, [6]uint64{}},
		{"process-vm-readv", kernel.SysProcessVMReadv, [6]uint64{}},
		{"execve-no-handler", kernel.SysExecve, [6]uint64{scratch}},
	}
	for _, c := range calls {
		wantErrno(t, c.name, k.DirectSyscall(mt, c.nr, c.args), kernel.ENOSYS)
	}

	if len(events) != len(calls) {
		t.Fatalf("got %d EvUnknownSyscall events, want %d (one per rejected call)", len(events), len(calls))
	}
	for i, e := range events {
		c := calls[i]
		if e.Num != c.nr {
			t.Errorf("%s: event Num = %d, want %d", c.name, e.Num, c.nr)
		}
		wantErrno(t, c.name+" event Ret", e.Ret, kernel.ENOSYS)
		if e.Detail == "" {
			t.Errorf("%s: event carries no Detail", c.name)
		}
		if e.PID != p.PID || e.TID != mt.TID {
			t.Errorf("%s: event attributed to %d/%d, want %d/%d", c.name, e.PID, e.TID, p.PID, mt.TID)
		}
	}

	if len(order) == 0 || len(order)%2 != 0 {
		t.Fatalf("sinks saw %v, want every event twice", order)
	}
	for i := 0; i < len(order); i += 2 {
		if want := []seen{{1, order[i].seq}, {2, order[i].seq}}; !reflect.DeepEqual(order[i:i+2], want) {
			t.Fatalf("sinks saw %v, want %v: sink 1 then sink 2, one Seq", order[i:i+2], want)
		}
	}

	// Untraced worlds take the single-branch fast path: a phase sink
	// alone neither turns tracing on nor advances the event ordinal.
	k, _, mt, _ = confWorld(t)
	marks := 0
	k.OnPhase(func(*kernel.PhaseMark) { marks++ })
	seq := k.EventSeq()
	wantErrno(t, "nr-500 untraced", k.DirectSyscall(mt, 500, [6]uint64{}), kernel.ENOSYS)
	if k.Tracing() || k.EventSeq() != seq {
		t.Errorf("a phase sink alone: Tracing() = %v, EventSeq %d -> %d", k.Tracing(), seq, k.EventSeq())
	}
	if marks == 0 {
		t.Error("the phase sink saw no marks")
	}
}
