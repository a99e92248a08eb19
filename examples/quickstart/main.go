// Quickstart: interpose every system call of a program with K23.
//
// This walks the complete K23 lifecycle from the paper: the offline
// profiling phase (libLogger over SUD), then the online phase — ptracer
// from the first instruction, the single selective rewrite, and the SUD
// fallback — with a user hook observing every call.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/machine"
)

func main() {
	// A world is a simulated machine: kernel, loader, binaries.
	w := interpose.NewWorld()
	apps.RegisterAll(w.Reg)
	if err := apps.SetupFS(w.K.FS); err != nil {
		log.Fatal(err)
	}

	// --- Offline phase (paper §5.1): profile `ls` under libLogger. ---
	logPath, sites, err := machine.Offline(context.Background(), w, apps.LsPath, []string{"ls", "/data"}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline phase: %d unique syscall sites logged (log dir sealed immutable)\n\n", sites)

	// --- Online phase (paper §5.2): run `ls` under K23-ultra+. ---
	counts := map[interpose.Mechanism]int{}
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			counts[c.Mechanism]++
			return 0, false // pass through to the real syscall
		},
		NullExecCheck: true, // Table 4: the -ultra features
		StackSwitch:   true,
	}
	k23 := core.New(cfg, logPath)
	p, err := machine.Exec(context.Background(), w, k23, apps.LsPath, []string{"ls", "/data"}, 0, machine.DefaultMaxInsts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ls output: %q\n", p.Stdout)
	fmt.Printf("exit: %s\n\n", p.Exit)
	st := k23.Stats(p)
	fmt.Println("every system call interposed, by mechanism:")
	fmt.Printf("  ptrace (startup, before/during library loading): %d\n", st.Ptraced)
	fmt.Printf("  rewritten trampoline (offline-validated sites):  %d\n", st.Rewritten)
	fmt.Printf("  SUD fallback (sites the offline phase missed):   %d\n", st.SUD)
	fmt.Printf("  rewritten sites: %d, NULL-exec check memory: %d bytes\n",
		st.Sites, st.MemResidentBytes)
}
