// Command k23-offline runs K23's offline profiling phase (paper §5.1) on
// a workload and prints the resulting (region, offset) log — the Figure 3
// artifact.
//
// Usage:
//
//	k23-offline [-dir /var/k23/logs] [-requests N] [-engine sud|seccomp] [-static] PROG [ARGS...]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"k23/internal/apps"
	"k23/internal/core"
	"k23/internal/interpose"
	"k23/internal/machine"
)

func main() {
	dir := flag.String("dir", "/var/k23/logs", "log directory (sealed immutable afterwards)")
	requests := flag.Int("requests", 40, "requests to drive through server workloads")
	engine := flag.String("engine", "sud", "libLogger engine: sud or seccomp")
	static := flag.Bool("static", false, "augment the log with symbol-anchored static analysis of libc")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: k23-offline [-dir DIR] [-requests N] [-engine sud|seccomp] [-static] PROG [ARGS...]")
		os.Exit(2)
	}
	path, argv, ok := apps.Command(args)
	if !ok {
		fmt.Fprintf(os.Stderr, "k23-offline: unknown program %q\n", args[0])
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	w := interpose.NewWorld()
	if err := machine.StandardSetup(w); err != nil {
		fmt.Fprintln(os.Stderr, "k23-offline:", err)
		os.Exit(1)
	}

	off := &core.Offline{LogDir: *dir, Engine: *engine}
	run, err := off.Start(w, path, argv, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "k23-offline:", err)
		os.Exit(1)
	}
	// Drive server workloads with a representative request stream.
	if apps.IsServer(path) {
		if err := machine.Listen(ctx, w.K, run.Process(), make([]byte, apps.RequestSize), *requests); err != nil {
			fmt.Fprintln(os.Stderr, "k23-offline:", err)
			os.Exit(1)
		}
	}
	if err := w.K.RunUntilExit(run.Process(), 2_000_000_000, ctx.Err); err != nil {
		fmt.Fprintln(os.Stderr, "k23-offline: run:", err)
		os.Exit(1)
	}
	n, err := run.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "k23-offline: finish:", err)
		os.Exit(1)
	}
	name := path[strings.LastIndexByte(path, '/')+1:]
	if *static {
		added, err := core.AugmentStatic(w, off, name, []string{"/usr/lib/libc.so.6"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "k23-offline: augment:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "# static augmentation added %d sites\n", added)
		n += added
	}
	logPath := off.LogPath(name)
	data, err := w.K.FS.ReadFile(logPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "k23-offline: read log:", err)
		os.Exit(1)
	}
	fmt.Printf("# %s — %d unique syscall/sysenter instructions (Figure 3 format)\n", logPath, n)
	os.Stdout.Write(data)
	fmt.Printf("# log directory sealed immutable: %v\n", w.K.FS.IsImmutable(*dir))
}
