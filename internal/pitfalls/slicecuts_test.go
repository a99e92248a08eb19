package pitfalls

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"

	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/kernel"
)

// sliceCutsBudget bounds every run, like one run of P5's delay scan.
const sliceCutsBudget = 100_000_000

// FuzzSliceCuts checks that where a caller cuts its Run slices is
// invisible to the guest. It runs P5's scan world (the three-thread
// p5mt race at one delay, under a fuzz-chosen quantum where P5 uses 1)
// to exit three ways: in one uninterrupted Run,
// in a sequence of Run(n) calls, and by restoring a checkpoint taken at
// one of those cuts and running on to exit. All three must end with the
// same retired-instruction trace hash and the same kernel state hash.
//
// cuts holds the slice lengths as little-endian uint16 pairs, each plus
// one, repeated until the first call after which p has exited, where a
// drive loop stops calling Run; none means kernel.Slice. The checkpoint
// is taken before call at, or right after launch if the run ends first.
func FuzzSliceCuts(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, []byte{6, 0}, uint8(3))
	f.Add(uint8(17), uint8(1), true, []byte{0x0f, 0x27, 2, 0, 0x62, 1}, uint8(2))
	f.Add(uint8(45), uint8(1), false, []byte{0xe8, 3, 0, 0}, uint8(40))
	f.Add(uint8(90), uint8(1), true, []byte{}, uint8(1))
	f.Add(uint8(33), uint8(50), false, []byte{0x18, 0, 0x2f, 0}, uint8(5))
	// The exit lands in a call's last round, which must reap it.
	f.Add(uint8(128), uint8(1), false, []byte{0x21, 0}, uint8(40))
	f.Fuzz(func(t *testing.T, delay, quantum uint8, k23 bool, cuts []byte, at uint8) {
		mech := "zpoline-ultra"
		if k23 {
			mech = "k23-ultra+"
		}
		argv := []string{"p5mt", fmt.Sprint(delay % 91)}
		launch := func() (*kernel.Kernel, *kernel.Process) {
			t.Helper()
			h := harness{ctx: context.Background()}
			w := h.world()
			w.K.Quantum = max(1, int(quantum))
			l, err := h.launcher(w, specByName(t, mech), interpose.Config{}, p5mtPath, []string{"p5mt", "0"})
			if err != nil {
				t.Fatal(err)
			}
			trace := cpu.NewTraceHash()
			w.K.Trace = &trace
			p, err := l.Launch(w, p5mtPath, argv, nil)
			if err != nil {
				t.Fatal(err)
			}
			return w.K, p
		}
		toExit := func(k *kernel.Kernel, p *kernel.Process, what string) (cpu.TraceHash, uint64) {
			t.Helper()
			k.Run(sliceCutsBudget)
			if p.State == kernel.ProcRunning {
				t.Fatalf("%s run did not exit within %d instructions", what, sliceCutsBudget)
			}
			return *k.Trace, k.StateHash()
		}

		k, p := launch()
		wantTrace, wantState := toExit(k, p, "uninterrupted")

		k, p = launch()
		var snap *kernel.Snapshot
		var snapTrace cpu.TraceHash
		var retired uint64
		for i := 0; ; i++ {
			if i == 0 || i == int(at) {
				var err error
				if snap, err = k.Checkpoint(nil); err != nil {
					t.Fatal(err)
				}
				snapTrace = *k.Trace
			}
			n := uint64(kernel.Slice)
			if pairs := len(cuts) / 2; pairs > 0 {
				n = uint64(binary.LittleEndian.Uint16(cuts[2*(i%pairs):])) + 1
			}
			got := k.Run(n)
			if got == 0 || p.State != kernel.ProcRunning {
				break
			}
			if retired += got; retired > sliceCutsBudget {
				t.Fatalf("sliced run did not exit within %d instructions", sliceCutsBudget)
			}
		}
		if p.State == kernel.ProcRunning {
			t.Fatalf("sliced run deadlocked after %d instructions", retired)
		}
		if trace, state := *k.Trace, k.StateHash(); trace != wantTrace || state != wantState {
			t.Errorf("sliced run: trace %#x state %#x, uninterrupted run: trace %#x state %#x",
				uint64(trace), state, uint64(wantTrace), wantState)
		}

		k.Restore(snap)
		*k.Trace = snapTrace
		if trace, state := toExit(k, p, "restored"); trace != wantTrace || state != wantState {
			t.Errorf("restored run: trace %#x state %#x, uninterrupted run: trace %#x state %#x",
				uint64(trace), state, uint64(wantTrace), wantState)
		}
	})
}
