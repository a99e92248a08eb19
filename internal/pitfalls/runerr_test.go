package pitfalls

import (
	"strings"
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
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
