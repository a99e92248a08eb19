package kernel

// Checkpoint/Restore: the kernel's whole-world snapshot layer, the
// substrate of record/replay (internal/rr). A Snapshot captures every
// piece of guest-visible state — process/thread/fd/signal tables, the
// socket layer, the VFS tree, each address space (as a dirty-page delta
// against the previous checkpoint), each core's architectural state
// including its I-cache, the chaos injector's stream position and the
// event and phase ordinals.
//
// Threads, processes, fds, connections and listeners are saved by
// value: the snapshot holds a copy of each struct, and one clone helper
// per type (cloner) gives the copy private versions of its
// reference-typed fields — slices, maps and the fd/conn/listener graph,
// whose aliasing it keeps. A blocked thread's wake condition is plain
// data (Thread.wakeDesc), so it is saved like any other field.
//
// Restore is IN PLACE: it writes each saved value back over the same
// Process and Thread object and clones again, so one snapshot can seed
// any number of restores. Kernel, Process, Thread, AddressSpace and FS
// objects keep their identity, so host-side closures that captured them
// (hostcall functions, synthetic /proc/<pid>/maps generators,
// interposer state) remain valid after a rewind. Processes and threads
// created after the checkpoint are dropped.
//
// The state hash is taken from the snapshot (Snapshot.Hash), so a field
// is hashed exactly when it is checkpointed; TestSnapshotFieldGuard
// perturbs every field of the state structs to keep it that way.

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"slices"

	"k23/internal/cpu"
	"k23/internal/mem"
	"k23/internal/vfs"
)

// HostState is implemented by opaque host-side state hung off a process
// (Process.LoaderState, Process.Interposer, an attached Tracer) that
// carries guest-affecting mutable data. Checkpoint refuses to snapshot a
// process whose host state does not implement it — silently skipping
// would under-capture the frontier and surface later as an unexplained
// replay divergence, the exact failure mode record/replay exists to
// rule out.
type HostState interface {
	// SnapshotHostState returns an opaque deep copy of the mutable state.
	SnapshotHostState() any
	// RestoreHostState rewinds the state to a value SnapshotHostState
	// returned. Restore may be called any number of times per snapshot.
	RestoreHostState(any)
}

// threadSnap is a thread saved by value plus its core's architectural
// state. saved.Core is the core Restore rewinds: an execve Rebind after
// the checkpoint may have given the thread another one.
type threadSnap struct {
	t     *Thread
	saved Thread
	core  cpu.CoreState
}

// procSnap is a process saved by value. saved.AS is the address-space
// object and as its contents; saved.Hostcalls is the hostcall map,
// shared across fork and refilled in place, and hostcalls its contents;
// host holds the HostState snapshots of hostState(p).
type procSnap struct {
	p         *Process
	saved     Process
	as        *mem.ASState
	hostcalls map[int32]*Hostcall
	host      [3]any
	threads   []threadSnap
}

// hostState lists p's opaque host-side state: loader, interposer and
// tracer (nil when not attached).
func hostState(p *Process) [3]any { return [3]any{p.LoaderState, p.Interposer, p.tracer} }

// Snapshot is a whole-kernel checkpoint. It is immutable once taken and
// can seed any number of Restores.
type Snapshot struct {
	vclock      uint64
	eventSeq    uint64
	phaseSeq    uint64
	nextPID     int
	order       []int
	profileNext uint64
	vvars       []vvarReg

	fs        *vfs.FSState
	listeners map[int]*listener
	chaos     *chaosState
	procs     map[int]*procSnap
	// sfip is the SFIP enforcer's opaque state and sfipHash its
	// HashState, both taken with the snapshot (sfip is nil when no
	// enforcer is installed).
	sfip     any
	sfipHash uint64
}

// VClock returns the virtual-clock tick the snapshot was taken at.
func (s *Snapshot) VClock() uint64 { return s.vclock }

// EventSeq returns the global event ordinal at snapshot time (the Seq
// the next emitted event will carry after a Restore).
func (s *Snapshot) EventSeq() uint64 { return s.eventSeq }

// ASDelta sums the per-address-space delta statistics: pages whose
// generation changed since the previous snapshot vs pages unchanged
// since it (the checkpoint space metric). Page data itself is shared
// copy-on-write with the live address space either way.
func (s *Snapshot) ASDelta() (copied, shared int) {
	for _, ps := range s.procs {
		copied += ps.as.Copied
		shared += ps.as.Shared
	}
	return copied, shared
}

// cloner copies the reference-typed fields of the kernel's state
// structs. It memoizes by source object, so the fd/conn/listener graph
// keeps its aliasing (several fds on one connection, the listener
// backlog, the port table) and host state shared across fork is
// snapshotted and restored once.
type cloner map[any]any

// process gives p private copies of its slices and maps. Threads keep
// their identity; the address space, the hostcall map and host state
// are the caller's.
func (g cloner) process(p *Process) {
	p.Argv = slices.Clone(p.Argv)
	p.Env = slices.Clone(p.Env)
	p.Threads = slices.Clone(p.Threads)
	p.Stdout = slices.Clone(p.Stdout)
	p.Stderr = slices.Clone(p.Stderr)
	p.sigHandlers = maps.Clone(p.sigHandlers)
	// Installed filters are immutable; the slice is copied.
	p.seccomp = slices.Clone(p.seccomp)
	fds := make(map[int]*fd, len(p.fds))
	for n, f := range p.fds {
		c := *f
		c.data = slices.Clone(f.data)
		c.listener, c.conn = g.listener(f.listener), g.conn(f.conn)
		fds[n] = &c
	}
	p.fds = fds
}

// thread gives t a private copy of its signal frames.
func (g cloner) thread(t *Thread) { t.sigFrames = slices.Clone(t.sigFrames) }

func (g cloner) conn(c *conn) *conn {
	if c == nil {
		return nil
	}
	if n, ok := g[c]; ok {
		return n.(*conn)
	}
	n := *c
	n.in, n.request = slices.Clone(c.in), slices.Clone(c.request)
	g[c] = &n
	return &n
}

func (g cloner) listener(l *listener) *listener {
	if l == nil {
		return nil
	}
	if n, ok := g[l]; ok {
		return n.(*listener)
	}
	n := *l
	g[l] = &n
	n.backlog = slices.Clone(l.backlog)
	for i, c := range n.backlog {
		n.backlog[i] = g.conn(c)
	}
	return &n
}

func (g cloner) listeners(m map[int]*listener) map[int]*listener {
	out := make(map[int]*listener, len(m))
	for port, l := range m {
		out[port] = g.listener(l)
	}
	return out
}

// snapshotHost snapshots one opaque host-state object through the
// HostState interface, once per object.
func (g cloner) snapshotHost(ref any, pid int) (any, error) {
	if ref == nil {
		return nil, nil
	}
	if st, ok := g[ref]; ok {
		return st, nil
	}
	hs, ok := ref.(HostState)
	if !ok {
		return nil, fmt.Errorf("kernel: checkpoint: pid %d host state %T does not implement HostState", pid, ref)
	}
	st := hs.SnapshotHostState()
	g[ref] = st
	return st, nil
}

// restoreHost rewinds one opaque host-state object, once per object.
func (g cloner) restoreHost(ref, state any) {
	if _, done := g[ref]; ref == nil || done {
		return
	}
	g[ref] = state
	ref.(HostState).RestoreHostState(state)
}

// Checkpoint captures the kernel's complete state. prev, if non-nil, is
// an earlier checkpoint of the same kernel: address-space pages
// untouched since then count as shared (dirty-page delta). It
// returns an error — and no snapshot — if any process carries host
// state that does not implement HostState.
//
// Checkpoint must be taken at a quiescent point: between scheduler
// slices (Run returns), never from inside a syscall service routine.
// The rr drive loop guarantees this by checkpointing only on slice
// boundaries.
func (k *Kernel) Checkpoint(prev *Snapshot) (*Snapshot, error) {
	g := cloner{}
	s := &Snapshot{
		vclock:      k.VClock,
		eventSeq:    k.eventSeq,
		phaseSeq:    k.phaseSeq,
		nextPID:     k.nextPID,
		order:       slices.Clone(k.order),
		profileNext: k.profileNext,
		vvars:       slices.Clone(k.vvars),
		fs:          k.FS.SnapshotState(),
		listeners:   g.listeners(k.net.listeners),
		procs:       make(map[int]*procSnap, len(k.procs)),
	}
	if k.chaos != nil {
		c := *k.chaos
		c.hits = slices.Clone(c.hits)
		s.chaos = &c
	}
	if k.Sfip != nil {
		s.sfip, s.sfipHash = k.Sfip.SnapshotHostState(), k.Sfip.HashState()
	}
	for _, pid := range s.order {
		p, ok := k.procs[pid]
		if !ok {
			continue
		}
		ps := &procSnap{p: p, saved: *p, hostcalls: maps.Clone(p.Hostcalls)}
		g.process(&ps.saved)
		// Delta against prev only when it snapshotted the SAME address
		// space: generation counters are per-AS, so comparing across
		// objects (execve replaced the image in between) would falsely
		// share pages.
		var prevAS *mem.ASState
		if prev != nil {
			if pp, ok := prev.procs[pid]; ok && pp.saved.AS == p.AS {
				prevAS = pp.as
			}
		}
		ps.as = p.AS.SnapshotState(prevAS)
		for i, ref := range hostState(p) {
			var err error
			if ps.host[i], err = g.snapshotHost(ref, pid); err != nil {
				return nil, err
			}
		}
		for _, t := range p.Threads {
			ts := threadSnap{t: t, saved: *t, core: t.Core.SnapshotState()}
			g.thread(&ts.saved)
			ps.threads = append(ps.threads, ts)
		}
		s.procs[pid] = ps
	}
	return s, nil
}

// Restore rewinds the kernel to the snapshot, in place. Processes and
// threads created after the checkpoint are dropped (their synthetic
// /proc files unregistered); everything in the snapshot resumes with
// object identity intact.
func (k *Kernel) Restore(s *Snapshot) {
	for pid := range k.procs {
		if _, ok := s.procs[pid]; !ok {
			k.FS.UnregisterSynthetic(fmt.Sprintf("/proc/%d/maps", pid))
			delete(k.procs, pid)
		}
	}
	k.VClock = s.vclock
	k.eventSeq = s.eventSeq
	k.phaseSeq = s.phaseSeq
	k.nextPID = s.nextPID
	k.order = slices.Clone(s.order)
	k.profileNext = s.profileNext
	k.vvars = slices.Clone(s.vvars)
	k.stopHit = false
	k.FS.RestoreState(s.fs)
	if k.chaos != nil && s.chaos != nil {
		*k.chaos = *s.chaos
		k.chaos.hits = slices.Clone(s.chaos.hits)
	}
	if k.Sfip != nil && s.sfip != nil {
		k.Sfip.RestoreHostState(s.sfip)
	}

	g := cloner{}
	k.net.listeners = g.listeners(s.listeners)
	for _, pid := range s.order {
		ps, ok := s.procs[pid]
		if !ok {
			continue
		}
		p := ps.p
		k.procs[pid] = p
		*p = ps.saved
		g.process(p)
		p.AS.RestoreState(ps.as)
		clear(p.Hostcalls)
		maps.Copy(p.Hostcalls, ps.hostcalls)
		for i, ref := range hostState(p) {
			g.restoreHost(ref, ps.host[i])
		}
		for i := range ps.threads {
			ts := &ps.threads[i]
			*ts.t = ts.saved
			g.thread(ts.t)
			ts.t.Core.RestoreState(ts.core)
		}
	}

	k.live = k.live[:0]
	for _, pid := range k.order {
		if p, ok := k.procs[pid]; ok && !stopped(p) {
			k.live = append(k.live, p)
		}
	}
	// The snapshot's vvar registrations may name stopped processes.
	k.reap = true
}

// StateHash returns a deterministic FNV-1a hash over the kernel's
// complete guest-visible state: the hash of a checkpoint taken now
// (Snapshot.Hash). Taking it marks address-space pages shared
// copy-on-write, which no guest can observe. It panics if a process
// carries host state that cannot be checkpointed. The checkpoint
// property tests compare it across Checkpoint/mutate/Restore cycles;
// the replay battery compares it at end of run.
func (k *Kernel) StateHash() uint64 {
	s, err := k.Checkpoint(nil)
	if err != nil {
		panic(err)
	}
	return s.Hash()
}

// Hash returns a deterministic FNV-1a hash of everything the snapshot
// captured: the clocks and ordinals, scheduling order, vvar
// registrations, chaos position, SFIP enforcer state, VFS tree, socket
// layer, and every process's memory, fds, signal table, hostcall ids
// and threads with their core state (I-cache included; decode-cache
// and JIT statistics excluded, so jit and interp runs hash alike).
// Opaque host state (loader, interposer, tracer) and host callbacks
// have no hash.
func (s *Snapshot) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "k %d %d %d %d %d %v\n", s.vclock, s.eventSeq, s.phaseSeq, s.nextPID, s.profileNext, s.order)
	for _, v := range s.vvars {
		fmt.Fprintf(h, "vvar %d %#x\n", v.p.PID, v.addr)
	}
	if c := s.chaos; c != nil {
		fmt.Fprintf(h, "chaos %d %d %d %d %v\n", c.seed, c.injected, c.q, c.scriptIdx, c.hits)
	}
	if s.sfip != nil {
		fmt.Fprintf(h, "sfip %#x\n", s.sfipHash)
	}
	fmt.Fprintf(h, "fs %#x\n", s.fs.Hash())
	for _, port := range sortedKeys(s.listeners) {
		hashListener(h, s.listeners[port])
	}
	for _, pid := range sortedKeys(s.procs) {
		ps := s.procs[pid]
		p := &ps.saved
		parent := 0
		if p.Parent != nil {
			parent = p.Parent.PID
		}
		fmt.Fprintf(h, "p %d %q %q %q %d %d %d %q %d %d %v %v %v %v %d\n",
			p.PID, p.Path, p.Argv, p.Env, p.State, p.Exit.Code, p.Exit.Signal, p.Exit.Fault,
			parent, p.nextFD, p.sudEverArmed, p.VDSODisabled, p.traceExecve, p.pkeyAllocated, p.nextTID)
		fmt.Fprintf(h, "out %q err %q\nas %#x sig %v\n", p.Stdout, p.Stderr, ps.as.Hash(), p.sigHandlers)
		for _, f := range p.seccomp {
			fmt.Fprintf(h, "seccomp %v\n", *f)
		}
		for _, id := range sortedKeys(ps.hostcalls) {
			fmt.Fprintf(h, "hostcall %d %q %d\n", id, ps.hostcalls[id].Name, ps.hostcalls[id].Cost)
		}
		for _, n := range sortedKeys(p.fds) {
			f := p.fds[n]
			fmt.Fprintf(h, "fd %d %d %q %q %d %#x\n", n, f.kind, f.path, f.data, f.off, f.flags)
			if f.listener != nil {
				hashListener(h, f.listener)
			}
			if f.conn != nil {
				hashConn(h, f.conn)
			}
		}
		for i := range ps.threads {
			t := &ps.threads[i].saved
			fmt.Fprintf(h, "t %d %d %v %v %v %d %d %d %d %d core %#x\n",
				t.TID, t.State, t.sud, t.sigFrames, t.wakeDesc, t.entryLen, t.entrySite,
				t.blockedLen, t.infraFrames, t.ExtraCycles, ps.threads[i].core.Hash())
		}
	}
	return h.Sum64()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

func hashListener(w io.Writer, l *listener) {
	fmt.Fprintf(w, "listener %d %d %d\n", l.port, l.accepted, l.completed)
	for _, c := range l.backlog {
		hashConn(w, c)
	}
}

func hashConn(w io.Writer, c *conn) {
	fmt.Fprintf(w, "conn %q %q %d %d %v %v\n", c.in, c.request, c.remaining, c.completed, c.awaiting, c.closed)
}
