// Package difftest is a differential test harness for the execution
// engines in internal/cpu: it runs whole workloads — every
// internal/apps program and every internal/pitfalls PoC — under each
// engine mode (trace-JIT superblocks over the decode cache, decode
// cache only, fully interpretive) and asserts the executions are
// bit-identical: same per-step instruction trace, same kernel event
// (syscall) sequence, same final register files, same CMC-violation
// counts, same process output and exit status, and same final VFS
// state. Every run goes through the machine runner (internal/machine),
// so the battery covers the same executions the fleet and the
// record/replay engine run.
//
// An engine layer is only an optimisation if this holds for everything
// the repository can run; the P5 pitfall family executes deliberately
// stale instruction bytes, so these are exactly the optimisations that
// can silently break the paper's semantics.
package difftest

import (
	"context"
	"fmt"
	"sort"

	"k23/internal/apps"
	"k23/internal/cpu"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// ThreadState is the architecturally visible final state of one thread.
type ThreadState struct {
	TID           int
	Ctx           cpu.Context
	TLS           uint64
	Insts         uint64
	Cycles        uint64
	CMCViolations uint64
}

// Snapshot captures everything observable about one workload execution.
// Two runs of the same workload must produce equal Snapshots regardless
// of the engine mode. The embedded Outcome carries the trace hash of
// every retired instruction, the event hash, the step count, the VFS
// hash, the exit status and the chaos injection count.
type Snapshot struct {
	machine.Outcome
	// Events is the kernel event stream (syscall enters/exits, signals,
	// forks, execs), formatted.
	Events []string
	// Threads is the final state of every thread of the workload
	// process, ordered by TID.
	Threads []ThreadState
	// Stdout and Stderr are the process's outputs.
	Stdout string
	Stderr string
}

// Workload describes one program to run under the harness.
type Workload struct {
	Name     string
	Path     string
	Argv     []string
	Server   bool // drive with injected connections
	Requests int  // requests per injected connection
}

// AppWorkloads returns the full internal/apps program matrix (the
// Table 2 set).
func AppWorkloads() []Workload {
	return []Workload{
		{Name: "pwd", Path: apps.PwdPath, Argv: []string{"pwd"}},
		{Name: "touch", Path: apps.TouchPath, Argv: []string{"touch", "/data/new.txt"}},
		{Name: "ls", Path: apps.LsPath, Argv: []string{"ls", "/data"}},
		{Name: "cat", Path: apps.CatPath, Argv: []string{"cat", "/data/notes.txt"}},
		{Name: "clear", Path: apps.ClearPath, Argv: []string{"clear"}},
		{Name: "sqlite", Path: apps.SqlitePath, Argv: []string{"sqlite3"}},
		{Name: "nginx", Path: apps.NginxPath, Argv: []string{"nginx", "0"}, Server: true, Requests: 10},
		{Name: "lighttpd", Path: apps.LighttpdPath, Argv: []string{"lighttpd", "0"}, Server: true, Requests: 10},
		{Name: "redis", Path: apps.RedisPath, Argv: []string{"redis-server", "1"}, Server: true, Requests: 10},
	}
}

// Mode selects the execution-engine configuration of one run. The
// three-way battery proves every pair bit-identical.
type Mode int

// Modes, fastest first.
const (
	// ModeJIT is the production default: decode cache plus trace-JIT
	// superblocks.
	ModeJIT Mode = iota
	// ModeCacheOnly keeps the decode cache but disables the superblock
	// engine (kernel.WithJITOff), isolating the JIT layer.
	ModeCacheOnly
	// ModeCacheOff is the fully interpretive baseline: every fetch goes
	// through the complete fetch/EncodedLen/Decode path.
	ModeCacheOff
)

func (m Mode) String() string {
	switch m {
	case ModeJIT:
		return "jit"
	case ModeCacheOnly:
		return "cache-only"
	case ModeCacheOff:
		return "cache-off"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options returns the kernel options selecting this mode, for harnesses
// (the pitfall matrix, the audit matrix) that build worlds internally.
func (m Mode) Options() []kernel.Option {
	switch m {
	case ModeCacheOnly:
		return []kernel.Option{kernel.WithJITOff(true)}
	case ModeCacheOff:
		return []kernel.Option{kernel.WithDecodeCacheOff(true), kernel.WithJITOff(true)}
	default:
		return nil
	}
}

// Run executes one workload natively (no interposer) through the
// machine runner, seed 0, with opts — an engine mode's options, a chaos
// profile — applied to the kernel after the seed-derived ones, and
// returns its observable snapshot. Without options it runs the
// production engine (ModeJIT).
func Run(ctx context.Context, w Workload, opts ...kernel.Option) (*Snapshot, error) {
	snap := &Snapshot{}
	spec := machine.Spec{Name: w.Name, Path: w.Path, Argv: w.Argv, Server: w.Server, Requests: w.Requests}
	r, err := machine.Start(ctx, spec, machine.Config{Kernel: opts, Attach: func(r *machine.Run) {
		r.HashTrace()
		r.W.K.OnEvent(func(e *kernel.Event) {
			snap.Events = append(snap.Events, fmt.Sprintf(
				"%d/%d %s num=%d site=%#x ret=%#x %s",
				e.PID, e.TID, e.Kind, e.Num, e.Site, e.Ret, e.Detail))
		})
	}})
	if err == nil {
		err = r.Drive(ctx, 0)
	}
	if err != nil {
		return nil, err
	}

	p := r.P
	snap.Outcome = r.Outcome()
	for _, t := range p.Threads {
		snap.Threads = append(snap.Threads, ThreadState{
			TID:           t.TID,
			Ctx:           t.Core.Ctx,
			TLS:           t.Core.TLS,
			Insts:         t.Core.Insts,
			Cycles:        t.Core.Cycles,
			CMCViolations: t.Core.CMCViolations,
		})
	}
	sort.Slice(snap.Threads, func(i, j int) bool {
		return snap.Threads[i].TID < snap.Threads[j].TID
	})
	snap.Stdout = string(p.Stdout)
	snap.Stderr = string(p.Stderr)
	return snap, nil
}
