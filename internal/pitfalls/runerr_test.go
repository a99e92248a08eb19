package pitfalls

import (
	"context"
	"errors"
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// buildBlocker assembles, under path, a guest that listens on a socket
// and waits in accept for a connection nobody makes: with its only
// thread blocked, the kernel reports a deadlock at once.
func buildBlocker(path string) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("_start")
	t.CallSym("socket")
	t.Mov(cpu.RBX, cpu.RAX)
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 9494)
	t.CallSym("bind")
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 1)
	t.CallSym("listen")
	t.Mov(cpu.RDI, cpu.RBX)
	t.CallSym("accept")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b.MustBuild()
}

// withBlocker makes every PoC world register buildBlocker's guest in
// place of the PoC image at path until the test ends.
func withBlocker(t *testing.T, path string) {
	orig := pocImages
	t.Cleanup(func() { pocImages = orig })
	var imgs []*image.Image
	for _, im := range orig() {
		if im.Path == path {
			im = buildBlocker(path)
		}
		imgs = append(imgs, im)
	}
	pocImages = func() []*image.Image { return imgs }
}

// TestRunErrorFailsCell: a PoC run that deadlocks fails its cell with
// an error naming the target, the mechanism and, in P5's delay scan,
// the delay, instead of being judged from the zero exit status it
// never set.
func TestRunErrorFailsCell(t *testing.T) {
	spec := specByName(t, "zpoline-ultra")
	for _, c := range []struct {
		poc, target string
		want        []string
	}{
		{"P4b", victimPath, []string{victimPath + " under zpoline-ultra: ", "deadlock"}},
		{"P5", p5mtPath, []string{p5mtPath + " under zpoline-ultra at delay 0: ", "deadlock"}},
	} {
		t.Run(c.poc, func(t *testing.T) {
			withBlocker(t, c.target)
			for _, poc := range All() {
				if poc.ID != c.poc {
					continue
				}
				handled, detail, err := poc.Run(spec)
				if err == nil {
					t.Fatalf("deadlocking %s: no error, verdict handled=%v (%s)", c.target, handled, detail)
				}
				t.Log(err)
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q does not contain %q", err, w)
					}
				}
			}
		})
	}
}

// TestObserveCancelled: a done context stops a P5 cell with an error
// wrapping context.Canceled instead of a verdict, whether it is done
// before the PoC starts (offline phases included) or during the delay
// scan, where the error also names the delay.
func TestObserveCancelled(t *testing.T) {
	var p5 PoC
	for _, poc := range All() {
		if poc.ID == "P5" {
			p5 = poc
		}
	}
	for _, spec := range variants.Table3Columns() {
		t.Run(spec.Name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c, err := p5.Observe(ctx, spec, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v (verdict handled=%v, %s), want one wrapping context.Canceled", err, c.Handled, c.Detail)
			}
		})
	}
	t.Run("mid-scan", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The second world is the scan's; cancel when its third run exits.
		worlds := 0
		cancelInScan := func(k *kernel.Kernel) {
			if worlds++; worlds != 2 {
				return
			}
			exits := 0
			k.OnEvent(func(e *kernel.Event) {
				if e.Kind == kernel.EvExitProc {
					if exits++; exits == 3 {
						cancel()
					}
				}
			})
		}
		_, err := p5.Observe(ctx, specByName(t, "zpoline-ultra"), nil, cancelInScan)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "at delay 3: ") {
			t.Fatalf("err = %v, want one at delay 3 wrapping context.Canceled", err)
		}
	})
}
