// Tracer: an strace-like tool run under four different interposition
// mechanisms, showing what each one can and cannot see — the paper's
// coverage comparison in action.
//
// The same program is traced under ptrace, SUD, zpoline, lazypoline and
// K23; the table at the end counts how many of its system calls each
// mechanism observed, including the startup calls and a vdso
// gettimeofday that only exhaustive mechanisms catch.
//
// Run: go run ./examples/tracer
package main

import (
	"context"
	"fmt"
	"log"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

// buildTarget: a program exercising the paper's blind spots — ordinary
// syscalls, a vdso-eligible gettimeofday, and a dlopen'd late syscall.
func buildTarget() *asm.Builder {
	b := asm.NewBuilder("/trace/target")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".tv").Space(16)
	d.Label(".plug").CString("/trace/late.so")
	d.Label(".sym").CString("plugin_syscall")
	t := b.Text()
	t.Label("_start")
	t.CallSym("getpid")
	t.MovImmSym(cpu.RDI, ".tv")
	t.CallSym("gettimeofday") // vdso unless disabled
	t.MovImmSym(cpu.RDI, ".plug")
	t.CallSym("dlopen")
	t.MovImmSym(cpu.RDI, ".sym")
	t.CallSym("dlsym")
	t.Test(cpu.RAX, cpu.RAX)
	t.Jz(".skip")
	t.CallReg(cpu.RAX) // runtime-loaded syscall site
	t.Label(".skip")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("exit_group")
	return b
}

func buildPlugin() *asm.Builder {
	b := asm.NewBuilder("/trace/late.so")
	b.Needed(libc.Path)
	t := b.Text()
	t.Label("plugin_syscall")
	t.MovImm32(cpu.RAX, kernel.SysGettid)
	t.Syscall()
	t.Ret()
	return b
}

type observation struct {
	total, startup, timeCalls, late int
}

func traceUnder(name string) observation {
	w := interpose.NewWorld()
	w.MustRegister(buildTarget().MustBuild())
	w.MustRegister(buildPlugin().MustBuild())

	spec, ok := variants.ByName(name)
	if !ok {
		log.Fatalf("no variant %s", name)
	}
	var obs observation
	mainSeen := false
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			obs.total++
			switch c.Num {
			case kernel.SysOpenat:
				if !mainSeen {
					obs.startup++
				}
			case kernel.SysGetpid:
				mainSeen = true
			case kernel.SysGettimeofday:
				obs.timeCalls++
			case kernel.SysGettid:
				obs.late++
			}
			return 0, false
		},
	}
	l, err := machine.Launcher(context.Background(), w, spec, cfg, "/trace/target", []string{"target"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := machine.Exec(context.Background(), w, l, "/trace/target", []string{"target"}, 0, 500_000_000); err != nil {
		log.Fatal(err)
	}
	return obs
}

func main() {
	fmt.Println("What each interposition mechanism observes for the same program:")
	fmt.Println("(startup = openat calls before main; vdso = gettimeofday; late = dlopen'd syscall)")
	fmt.Println()
	fmt.Printf("%-16s %8s %9s %6s %6s\n", "mechanism", "total", "startup", "vdso", "late")
	for _, name := range []string{"ptrace", "sud", "zpoline-default", "lazypoline", "k23-ultra+"} {
		o := traceUnder(name)
		fmt.Printf("%-16s %8d %9d %6d %6d\n", name, o.total, o.startup, o.timeCalls, o.late)
	}
	fmt.Println()
	fmt.Println("ptrace and K23 see everything (K23 without ptrace's per-call cost);")
	fmt.Println("SUD misses startup and vdso; zpoline additionally misses dlopen'd code;")
	fmt.Println("lazypoline catches late code but still misses startup and vdso.")
}
