// Package difftest is a differential test harness for the execution
// engines in internal/cpu: it runs whole workloads — every
// internal/apps program and every internal/pitfalls PoC — under each
// engine mode (trace-JIT superblocks over the decode cache, decode
// cache only, fully interpretive) and asserts the executions are
// bit-identical: same per-step instruction trace, same kernel event
// (syscall) sequence, same final register files, same CMC-violation
// counts, same process output and exit status, and same final VFS
// state.
//
// An engine layer is only an optimisation if this holds for everything
// the repository can run; the P5 pitfall family executes deliberately
// stale instruction bytes, so these are exactly the optimisations that
// can silently break the paper's semantics.
package difftest

import (
	"fmt"
	"sort"

	"k23/internal/apps"
	"k23/internal/cpu"
	"k23/internal/interpose"
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
// of the decode cache mode.
type Snapshot struct {
	// TraceHash is the cpu.TraceHash of the (tid, rip, op) stream of
	// every retired instruction on every core, in scheduling order.
	TraceHash uint64
	// Steps is the number of instructions retired on every core.
	Steps uint64
	// Events is the kernel event stream (syscall enters/exits, signals,
	// forks, execs), formatted.
	Events []string
	// Threads is the final state of every thread of the workload
	// process, ordered by TID.
	Threads []ThreadState
	// Stdout, Stderr and Exit are the process's outputs.
	Stdout string
	Stderr string
	Exit   kernel.ExitInfo
	// VFSHash is a hash of the final filesystem tree (paths, modes and
	// contents).
	VFSHash uint64
	// ChaosInjected counts fault-injector perturbations (0 without a
	// chaos profile); equal counts are part of the replay contract.
	ChaosInjected uint64
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

// Modes returns all engine modes, fastest first.
func Modes() []Mode { return []Mode{ModeJIT, ModeCacheOnly, ModeCacheOff} }

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

// Run executes one workload natively (no interposer) in a world built
// with opts — an engine mode's options, a chaos profile, a clock seed —
// and returns its observable snapshot. Without options it runs the
// production engine (ModeJIT).
func Run(w Workload, opts ...kernel.Option) (*Snapshot, error) {
	world := interpose.NewWorld(opts...)
	apps.RegisterAll(world.Reg)
	if err := apps.SetupFS(world.K.FS); err != nil {
		return nil, err
	}

	snap := &Snapshot{}
	trace := cpu.NewTraceHash()
	world.K.Trace = &trace
	world.K.EventHook = func(e kernel.Event) {
		snap.Events = append(snap.Events, fmt.Sprintf(
			"%d/%d %s num=%d site=%#x ret=%#x %s",
			e.PID, e.TID, e.Kind, e.Num, e.Site, e.Ret, e.Detail))
	}

	p, err := world.L.Spawn(w.Path, w.Argv, nil)
	if err != nil {
		return nil, err
	}
	if w.Server {
		if err := drive(world, p, w.Requests); err != nil {
			return nil, err
		}
	}
	if err := world.Run(p); err != nil {
		return nil, err
	}

	snap.TraceHash, snap.Steps = uint64(trace), machine.Insts(world.K)
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
	snap.Exit = p.Exit
	snap.VFSHash = world.K.FS.TreeHash()
	snap.ChaosInjected = world.K.ChaosInjected()
	return snap, nil
}

// RunMode executes one workload natively under the given engine mode
// with extra kernel options (chaos profiles, clock seeds).
func RunMode(w Workload, m Mode, opts ...kernel.Option) (*Snapshot, error) {
	return Run(w, append(m.Options(), opts...)...)
}

// drive waits for the server to listen, then injects one keepalive
// connection carrying n requests.
func drive(world *interpose.World, p *kernel.Process, n int) error {
	req := make([]byte, apps.RequestSize)
	for i := range req {
		req[i] = byte('A' + i%26)
	}
	port := apps.BasePort + p.PID
	for i := 0; i < 2000; i++ {
		world.K.Run(10_000)
		if err := world.K.InjectConn(port, req, n, nil); err == nil {
			return nil
		}
	}
	return fmt.Errorf("difftest: server on port %d never listened", port)
}
