package kernel_test

import (
	"fmt"
	"reflect"
	"testing"

	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/loader"
	"k23/internal/machine"
)

// TestRestartRewindJITParity is the interposition-boundary regression
// for the superblock engine: the EINTR/SA_RESTART rewind probe — block
// in accept, deliver a signal, let sigreturn re-execute the rewound
// entry instruction, complete the restarted call — must produce a
// bit-identical execution (instruction trace, kernel event stream,
// blocked RIPs, exit status) with the JIT on and off. Signal delivery
// and RIP rewind land between superblocks, never inside one, so the
// streams cannot diverge.
func TestRestartRewindJITParity(t *testing.T) {
	// signals is how many times the blocked accept is interrupted before
	// the connection completes it. Each delivery runs the handler and
	// restarts the call through the rewound entry site, so the handler
	// and restart paths cross the hot threshold and compile — without
	// enough repetitions the JIT never engages and the parity claim is
	// vacuous.
	const signals = 24
	type capture struct {
		traceHash uint64
		steps     uint64
		events    []string
		blockRIP  []uint64
		exit      kernel.ExitInfo
	}
	const port = 9292
	run := func(t *testing.T, jitOff bool) capture {
		var cap capture
		k := kernel.New(kernel.WithJITOff(jitOff))
		reg := image.NewRegistry()
		reg.MustAdd(libc.Image())
		reg.MustAdd(buildEINTRProbeEntry("/bin/rewind-syscall", port, kernel.SARestart, false))
		l := loader.New(k, reg)

		trace := cpu.NewTraceHash()
		k.Trace = &trace
		k.EventHook = func(e kernel.Event) {
			cap.events = append(cap.events, fmt.Sprintf(
				"%d/%d %s num=%d site=%#x ret=%#x %s",
				e.PID, e.TID, e.Kind, e.Num, e.Site, e.Ret, e.Detail))
		}

		p, err := l.Spawn("/bin/rewind-syscall", []string{"/bin/rewind-syscall"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mt := p.MainThread()
		k.Run(1_000_000)
		if mt.State != kernel.ThreadBlocked {
			t.Fatalf("jitOff=%v: state = %v, want blocked in accept", jitOff, mt.State)
		}
		cap.blockRIP = append(cap.blockRIP, mt.Core.Ctx.RIP)

		for i := 0; i < signals; i++ {
			k.PostSignal(p, 10)
			k.Run(1_000_000)
			if mt.State != kernel.ThreadBlocked {
				t.Fatalf("jitOff=%v: state after restart %d = %v, want blocked again",
					jitOff, i, mt.State)
			}
			cap.blockRIP = append(cap.blockRIP, mt.Core.Ctx.RIP)
		}

		if err := k.InjectConn(port, []byte("x"), 1, nil); err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
		if p.State != kernel.ProcZombie {
			t.Fatalf("jitOff=%v: process did not exit: state %v", jitOff, p.State)
		}
		cap.exit = p.Exit
		cap.traceHash, cap.steps = uint64(trace), machine.Insts(k)

		if !jitOff && k.JITStats().Entries == 0 {
			t.Fatal("parity test vacuous: superblocks never entered with JIT on")
		}
		return cap
	}
	on := run(t, false)
	off := run(t, true)
	if on.traceHash != off.traceHash || on.steps != off.steps {
		t.Errorf("traces differ: jit %d steps %#x, interp %d steps %#x",
			on.steps, on.traceHash, off.steps, off.traceHash)
	}
	if !reflect.DeepEqual(on.events, off.events) {
		t.Errorf("event streams differ:\n jit: %v\ninterp: %v", on.events, off.events)
	}
	if !reflect.DeepEqual(on.blockRIP, off.blockRIP) {
		t.Errorf("rewound block sites differ: jit %#x, interp %#x", on.blockRIP, off.blockRIP)
	}
	for i, rip := range on.blockRIP[1:] {
		if rip != on.blockRIP[0] {
			t.Errorf("restart %d re-blocked at %#x, want the rewound entry site %#x",
				i, rip, on.blockRIP[0])
		}
	}
	if on.exit != off.exit {
		t.Errorf("exits differ: jit %+v, interp %+v", on.exit, off.exit)
	}
	if on.exit.Code != 10+signals {
		t.Errorf("exit = %+v, want code %d (%d handler runs, accept restarted each time)",
			on.exit, 10+signals, signals)
	}
}
