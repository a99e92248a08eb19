package variants_test

import (
	"context"
	"testing"

	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
	"k23/internal/obsv"
	"k23/internal/sud"
)

// getpidProg calls getpid twice from the same site and exits with the
// result: lazypoline serves the first call from SUD and the second from
// the site it rewrote.
func getpidProg() *asm.Builder {
	b := asm.NewBuilder("/bin/getpid2")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RBX, 2)
	tx.Label(".loop")
	tx.CallSym("getpid")
	tx.AddImm(cpu.RBX, -1)
	tx.Jnz(".loop")
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.CallSym("exit_group")
	return b
}

// contractHooks are the three things a hook can do to a call: pass it
// through, renumber it, or emulate it.
var contractHooks = []struct {
	name string
	hook interpose.Hook
	// want is the guest-visible getpid result.
	want func(p *kernel.Process) int
	// resolveNr and resolveEmu describe the EvResolve the hook must
	// produce; resolveNr 0 means none.
	resolveNr  uint64
	resolveEmu uint64
}{
	{
		name: "pass-through",
		hook: func(c *interpose.Call) (uint64, bool) { return 0, false },
		want: func(p *kernel.Process) int { return p.PID },
	},
	{
		name: "renumber",
		hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				c.Num = kernel.SysGettid
			}
			return 0, false
		},
		want:      func(p *kernel.Process) int { return p.MainThread().TID },
		resolveNr: kernel.SysGettid,
	},
	{
		name: "emulate",
		hook: func(c *interpose.Call) (uint64, bool) {
			if c.Num == kernel.SysGetpid {
				return 42, true
			}
			return 0, false
		},
		want:       func(p *kernel.Process) int { return 42 },
		resolveNr:  kernel.SysGetpid,
		resolveEmu: 1,
	},
}

// contractLauncher builds the named interposing launcher in w: a
// variant (running K23's offline phase first), K23 without an offline
// log (its SUD fallback handles every post-startup call), or the seccomp
// trap engine of K23's offline phase.
func contractLauncher(t *testing.T, w *interpose.World, name string, cfg interpose.Config) interpose.Launcher {
	switch name {
	case "k23-ultra+/no-log":
		cfg.NullExecCheck, cfg.StackSwitch = true, true
		return core.New(cfg, "")
	case "seccomp-trap":
		return sud.NewSeccompTrap(cfg)
	}
	s, ok := variants.ByName(name)
	if !ok {
		t.Fatalf("no variant %q", name)
	}
	l, err := machine.Launcher(context.Background(), w, s, cfg, "/bin/getpid2", []string{"getpid2"}, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return l
}

// TestHookContract checks that a hook behaves the same whichever
// mechanism delivered the call: the guest sees the hook's result, the
// hook's decision is resolved on the event stream, the auditor sees no
// hard escape or misattribution, and every handler span closes on its
// own end mark.
func TestHookContract(t *testing.T) {
	names := []string{
		"ptrace", "zpoline-default", "zpoline-ultra", "lazypoline", "sud",
		"k23-default", "k23-ultra", "k23-ultra+", "k23-ultra+/no-log", "seccomp-trap",
	}
	for _, h := range contractHooks {
		for _, name := range names {
			t.Run(h.name+"/"+name, func(t *testing.T) {
				w := interpose.NewWorld()
				w.MustRegister(getpidProg().MustBuild())
				l := contractLauncher(t, w, name, interpose.Config{Hook: h.hook})
				// Observe from the attach point on: the offline phase is
				// not part of the run.
				o := obsv.New(obsv.Options{Audit: true, Spans: true, Machine: name})
				o.Install(w.K)
				var resolves []kernel.Event
				w.K.OnEvent(func(e *kernel.Event) {
					if e.Kind == kernel.EvResolve {
						resolves = append(resolves, *e)
					}
				})
				p, err := machine.Exec(context.Background(), w, l, "/bin/getpid2", []string{"getpid2"}, 0, machine.DefaultMaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if want := h.want(p) & 0xff; p.Exit.Signal != 0 || p.Exit.Code != want {
					t.Fatalf("exit = %+v, want code %d", p.Exit, want)
				}

				if (h.resolveNr != 0) != (len(resolves) != 0) {
					t.Errorf("resolves = %+v, want nr=%d", resolves, h.resolveNr)
				}
				for _, e := range resolves {
					if e.Num != h.resolveNr || e.Ret != h.resolveEmu {
						t.Errorf("resolve %+v, want nr=%d emulated=%d", e, h.resolveNr, h.resolveEmu)
					}
				}

				s := o.Snapshot()
				if n := s.Audit.Totals.Misattributed; n != 0 {
					t.Errorf("%d misattributed calls", n)
				}
				if n := s.Audit.EscapedIn("post-coverage"); n != 0 {
					t.Errorf("%d post-coverage escapes", n)
				}
				handlers := 0
				for _, sp := range s.Spans[0].Spans {
					if sp.Kind != "handler" {
						continue
					}
					handlers++
					// The process exits inside the SIGSYS handler that
					// forwards exit_group: that span alone is cut short.
					if sp.Forced && sp.Num != kernel.SysExitGroup {
						t.Errorf("handler span %d (%s nr=%d) force-closed", sp.ID, sp.Mech, sp.Num)
					}
				}
				if handlers == 0 {
					t.Error("no handler spans")
				}
			})
		}
	}
}
