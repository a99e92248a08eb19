package machine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"k23/internal/apps"
	"k23/internal/asm"
	"k23/internal/canon"
	"k23/internal/image"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// TestSeedPayload: the seed-derived payload is deterministic per seed
// and distinct across seeds.
func TestSeedPayload(t *testing.T) {
	a := seedPayload(42, 64)
	b := seedPayload(42, 64)
	c := seedPayload(43, 64)
	if string(a) != string(b) {
		t.Error("same seed produced different payloads")
	}
	if string(a) == string(c) {
		t.Error("different seeds produced identical payloads")
	}
	for i, ch := range a {
		if ch < 'A' || ch > 'Z' {
			t.Fatalf("payload byte %d out of range: %q", i, ch)
		}
	}
}

// TestEventLineMatchesFormat pins Hash.Event to the canonical fmt line
// the event hash has always been defined by, including zero and
// extreme values, and checks it allocates nothing.
func TestEventLineMatchesFormat(t *testing.T) {
	cases := []struct {
		pid, tid       int
		kind           string
		num, site, ret uint64
		detail         string
	}{
		{1, 101, "enter", 39, 0x401000, 0, ""},
		{0, 0, "exit", 0, 0, 0, "x"},
		{12, 1203, "interposed", 500, 0x7fff_ffff_f000, ^uint64(0), "rewrite"},
		{1 << 40, -1, "signal", ^uint64(0), ^uint64(0), 0xdeadbeef, "SIGSYS at site"},
	}
	for _, c := range cases {
		want := canon.NewHash()
		fmt.Fprintf(&want, "%d/%d %s %d %#x %#x %s\n", c.pid, c.tid, c.kind, c.num, c.site, c.ret, c.detail)
		got := NewHash()
		got.Event(c.pid, c.tid, c.kind, c.num, c.site, c.ret, c.detail)
		if got != Hash(want) {
			t.Errorf("%+v: Event hashes to %#x, fmt line to %#x", c, uint64(got), uint64(want))
		}
	}
	h := NewHash()
	if n := testing.AllocsPerRun(100, func() {
		h.Event(3, 301, "enter", 1, 0x401234, 0, "detail")
	}); n != 0 {
		t.Errorf("Event allocates %.0f times per call", n)
	}
}

// spinner assembles /bin/spin, a guest that calls getpid forever.
func spinner() *image.Image {
	b := asm.NewBuilder("/bin/spin")
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.CallSym("getpid")
	t.Jmp("_start")
	return b.MustBuild()
}

// TestExecStops: Exec on a guest that never exits stops within one
// kernel.Slice of a cancellation, with an error wrapping
// context.Canceled, and an exhausted budget is an error naming the path
// and the mechanism.
func TestExecStops(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		// The cancellation lands mid-slice, so a drive in slices twice as
		// long would run on for more than one Slice after it.
		w := interpose.NewWorld()
		w.MustRegister(spinner())
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var at uint64
		w.K.OnEvent(func(e *kernel.Event) {
			if e.Kind == kernel.EvEnter && at == 0 && Insts(w.K) > 5*kernel.Slice/2 {
				at = Insts(w.K)
				cancel()
			}
		})
		_, err := Exec(ctx, w, interpose.Native{}, "/bin/spin", []string{"spin"}, 0, DefaultMaxInsts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run: err = %v, want one wrapping context.Canceled", err)
		}
		if n := Insts(w.K) - at; n > kernel.Slice {
			t.Errorf("run went on for %d instructions after the cancellation, more than one slice (%d)", n, kernel.Slice)
		}
	})
	t.Run("budget", func(t *testing.T) {
		zp, _ := variants.ByName("zpoline-default")
		w := interpose.NewWorld()
		w.MustRegister(spinner())
		_, err := Exec(context.Background(), w, zp.New(interpose.Config{}, ""), "/bin/spin", []string{"spin"}, 0, 50_000)
		if err == nil {
			t.Fatal("run of a guest that never exits ended without an error")
		}
		for _, want := range []string{"/bin/spin under zpoline-default: ", "budget exhausted"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		}
	})
}

// TestExecExitBeforeListen: a process given requests that exits without
// ever listening is a finished run, not a server that never listened:
// Exec returns without an error, and the process carries its exit.
func TestExecExitBeforeListen(t *testing.T) {
	w := interpose.NewWorld()
	if err := StandardSetup(w); err != nil {
		t.Fatal(err)
	}
	p, err := Exec(context.Background(), w, interpose.Native{}, apps.PwdPath, []string{"pwd"}, 10, DefaultMaxInsts)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if p.State == kernel.ProcRunning || p.Exit != (kernel.ExitInfo{}) {
		t.Errorf("pwd: state %v, exit %v; want exited with code 0", p.State, p.Exit)
	}
}
