// Sandbox: a system-call-filtering policy built on K23 — the paper's
// marquee use case for *exhaustive* interposition (§1, §4.2).
//
// The policy denies filesystem writes outside /data. The same untrusted
// program is run twice:
//
//  1. It politely tries to write /etc/passwd through libc — denied.
//  2. It tries to EVADE the sandbox with the paper's bypass tricks: a
//     prctl(PR_SYS_DISPATCH_OFF) (pitfall P1b) before retrying. Under
//     K23 the evasion attempt aborts the process.
//
// Run: go run ./examples/sandbox
package main

import (
	"context"
	"fmt"
	"log"

	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/machine"
)

// buildUntrusted assembles the sandboxed program. argv[1] "evade" makes
// it try the P1b bypass first.
func buildUntrusted() *asm.Builder {
	b := asm.NewBuilder("/sandbox/untrusted")
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".target").CString("/etc/passwd")
	d.Label(".allowed").CString("/data/scratch.txt")
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.R14, cpu.RSI, 8)
	t.LoadB(cpu.R14, cpu.R14, 0)
	t.CmpImm(cpu.R14, 'e')
	t.Jnz(".attack")
	// Disable SUD dispatch first (Listing 2), then attack.
	t.MovImm32(cpu.RDI, kernel.PrSetSyscallUserDispatch)
	t.MovImm32(cpu.RSI, kernel.PrSysDispatchOff)
	t.MovImm32(cpu.RDX, 0)
	t.MovImm32(cpu.R10, 0)
	t.MovImm32(cpu.R8, 0)
	t.CallSym("prctl")
	t.Label(".attack")
	// open("/etc/passwd", O_CREAT|O_WRONLY)
	t.MovImmSym(cpu.RDI, ".target")
	t.MovImm32(cpu.RSI, kernel.OCreat|kernel.OWronly)
	t.CallSym("open")
	t.Mov(cpu.RBX, cpu.RAX)
	// Legitimate write inside /data must still work.
	t.MovImmSym(cpu.RDI, ".allowed")
	t.MovImm32(cpu.RSI, kernel.OCreat|kernel.OWronly)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	// exit code: 1 if the forbidden open succeeded, else 0.
	t.MovImm32(cpu.RDI, 0)
	t.Test(cpu.RBX, cpu.RBX)
	t.Jl(".fine")
	t.MovImm32(cpu.RDI, 1)
	t.Label(".fine")
	t.CallSym("exit_group")
	return b
}

// policy denies open/openat with O_CREAT|O_WRONLY outside /data.
func policy(c *interpose.Call) (uint64, bool) {
	if c.Num != kernel.SysOpen && c.Num != kernel.SysOpenat {
		return 0, false
	}
	pathArg, flagsArg := c.Args[0], c.Args[1]
	if c.Num == kernel.SysOpenat {
		pathArg, flagsArg = c.Args[1], c.Args[2]
	}
	if flagsArg&(kernel.OWronly|kernel.ORdwr|kernel.OCreat) == 0 {
		return 0, false // reads are fine
	}
	path, err := c.Thread.Proc.AS.KLoadString(pathArg, 4096)
	if err != nil {
		return ^uint64(13) + 1, true // -EACCES
	}
	if len(path) >= 6 && path[:6] == "/data/" {
		return 0, false
	}
	fmt.Printf("  [sandbox] DENY %s (write outside /data), mechanism=%s\n", path, c.Mechanism)
	return ^uint64(13) + 1, true // emulate: -EACCES, real syscall skipped
}

func runCase(label, mode string) {
	fmt.Printf("--- %s ---\n", label)
	w := interpose.NewWorld()
	w.MustRegister(buildUntrusted().MustBuild())
	_ = w.K.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o4)

	// Offline profile with the benign input.
	logPath, _, err := machine.Offline(context.Background(), w, "/sandbox/untrusted", []string{"untrusted", "plain"}, 0)
	if err != nil {
		log.Fatal(err)
	}

	k23 := core.New(interpose.Config{Hook: policy, NullExecCheck: true, StackSwitch: true}, logPath)
	p, err := machine.Exec(context.Background(), w, k23, "/sandbox/untrusted", []string{"untrusted", mode}, 0, 200_000_000)
	if err != nil {
		log.Fatal(err)
	}

	switch {
	case p.Exit.Signal != 0:
		fmt.Printf("  result: evasion attempt ABORTED the process (%s)\n", p.Exit)
	case p.Exit.Code == 0:
		fmt.Println("  result: forbidden write denied; /data write allowed; program exited cleanly")
	default:
		fmt.Println("  result: SANDBOX BREACHED — forbidden open succeeded")
	}
	if w.K.FS.Exists("/data/scratch.txt") {
		fmt.Println("  /data/scratch.txt created: legitimate work unharmed")
	}
	fmt.Println()
}

func main() {
	runCase("untrusted program, honest run", "plain")
	runCase("untrusted program, P1b evasion attempt (prctl SUD-off)", "evade")
}
