package kernel

// Checkpoint/Restore: the kernel's whole-world snapshot layer, the
// substrate of record/replay (internal/rr). A Snapshot captures every
// piece of guest-visible state — process/thread/fd/signal tables, the
// socket layer, the VFS tree, each address space (as a dirty-page delta
// against the previous checkpoint), each core's architectural state
// including its I-cache, the chaos injector's stream position and the
// global event ordinal.
//
// Restore is IN PLACE: Kernel, Process, Thread, AddressSpace and FS
// objects keep their identity, so host-side closures that captured them
// (hostcall functions, synthetic /proc/<pid>/maps generators,
// interposer state) remain valid after a rewind. What gets
// rebuilt fresh is exactly the state nothing on the host side holds
// pointers into: fd tables, connections, listeners. Processes and
// threads created after the checkpoint are dropped.
//
// Wake closures are the one non-serializable piece of thread state: a
// blocked thread's wake predicate closes over live conn/listener/child
// objects. blockThread therefore records a serializable wakeDesc
// alongside the closure, and Restore rebuilds the closure against the
// restored objects.

import (
	"fmt"
	"hash/fnv"
	"sort"

	"k23/internal/cpu"
	"k23/internal/mem"
	"k23/internal/vfs"
)

// wakeKind discriminates the wake predicates blockThread installs.
type wakeKind uint8

const (
	wakeNone wakeKind = iota
	// wakeAcceptFD: blocked in accept on listener fd arg until the
	// backlog is non-empty.
	wakeAcceptFD
	// wakeConnReadFD: blocked in read on connection fd arg until data
	// arrives or the peer closes.
	wakeConnReadFD
	// wakeWait4PID: blocked in wait4(arg) until a matching child is a
	// zombie (arg <= 0 matches any child, as in wait4).
	wakeWait4PID
)

// wakeDesc is the serializable description of a wake predicate: which
// kernel object, named by stable identifier rather than pointer, the
// thread is blocked on.
type wakeDesc struct {
	kind wakeKind
	arg  int
}

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

// connSnap is the snapshot of one conn. Snapshots are memoized by
// source pointer so fd aliasing (several fds on one connection, the
// listener backlog) survives a round trip.
type connSnap struct {
	in        []byte
	request   []byte
	remaining int
	completed int
	awaiting  bool
	closed    bool
	// onResponse is a host closure; carried by reference (restore-in-
	// place keeps whatever it captured valid).
	onResponse func([]byte)
}

// listenerSnap is the snapshot of one listener.
type listenerSnap struct {
	port      int
	accepted  int
	completed int
	backlog   []*connSnap
}

// fdSnap is the snapshot of one file descriptor.
type fdSnap struct {
	kind     fdKind
	path     string
	data     []byte
	off      int
	flags    uint64
	listener *listenerSnap
	conn     *connSnap
}

// threadSnap is the snapshot of one thread. t and core carry identity:
// Restore reattaches exactly these objects (core may differ from the
// thread's current one if an execve Rebind happened after the
// checkpoint).
type threadSnap struct {
	t    *Thread
	core *cpu.Core

	state       ThreadState
	sud         sudState
	sigFrames   []sigFrame
	wakeDesc    wakeDesc
	entryLen    uint64
	entrySite   uint64
	blockedLen  uint64
	infraFrames int
	extraCycles uint64

	coreState cpu.CoreState
}

// procSnap is the snapshot of one process.
type procSnap struct {
	p *Process

	path      string
	argv, env []string
	state     ProcessState
	exit      ExitInfo
	parent    *Process
	stdout    []byte
	stderr    []byte

	// as is the address-space object (identity); asState its contents.
	as      *mem.AddressSpace
	asState *mem.ASState

	fds    map[int]*fdSnap
	nextFD int

	sudEverArmed  bool
	vdsoDisabled  bool
	traceExecve   bool
	sigHandlers   map[int]sigAction
	pkeyAllocated [mem.NumPkeys]bool
	// seccomp filters are immutable once installed; the slice header copy
	// suffices.
	seccomp []*seccompFilter

	// hostcallsRef is the process's hostcall map object (shared across
	// fork); hostcalls its contents at checkpoint time. Restore refills
	// the object in place, preserving the sharing.
	hostcallsRef map[int32]*Hostcall
	hostcalls    map[int32]*Hostcall

	// Host-state triples: the opaque object reference plus its
	// snapshotted contents (nil ref = nothing attached).
	loaderRef   any
	loaderState any
	interpRef   any
	interpState any
	tracerRef   Tracer
	tracerState any

	nextTID int
	threads []threadSnap
}

// chaosSnap is the chaos injector's stream position.
type chaosSnap struct {
	seed      uint64
	injected  uint64
	q         uint64
	scriptIdx int
	hits      int
}

// vvarSnap names a registered vvar page by PID (the Process pointer is
// re-resolved at restore).
type vvarSnap struct {
	pid  int
	addr uint64
}

// Snapshot is a whole-kernel checkpoint. It is immutable once taken and
// can seed any number of Restores.
type Snapshot struct {
	vclock      uint64
	eventSeq    uint64
	phaseSeq    uint64
	nextPID     int
	order       []int
	profileNext uint64

	fs        *vfs.FSState
	listeners map[int]*listenerSnap
	chaos     *chaosSnap
	vvars     []vvarSnap
	procs     map[int]*procSnap
	// sfip is the SFIP enforcer's opaque state (per-thread predecessor
	// map + counters), nil when no enforcer is installed.
	sfip any
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
		copied += ps.asState.Copied
		shared += ps.asState.Shared
	}
	return copied, shared
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
	s := &Snapshot{
		vclock:      k.VClock,
		eventSeq:    k.eventSeq,
		phaseSeq:    k.phaseSeq,
		nextPID:     k.nextPID,
		order:       append([]int(nil), k.order...),
		profileNext: k.profileNext,
		fs:          k.FS.SnapshotState(),
		listeners:   make(map[int]*listenerSnap, len(k.net.listeners)),
		procs:       make(map[int]*procSnap, len(k.procs)),
	}
	if k.chaos != nil {
		c := k.chaos
		s.chaos = &chaosSnap{seed: c.seed, injected: c.injected, q: c.q,
			scriptIdx: c.scriptIdx, hits: len(c.hits)}
	}
	if k.Sfip != nil {
		s.sfip = k.Sfip.SnapshotHostState()
	}
	for _, v := range k.vvars {
		s.vvars = append(s.vvars, vvarSnap{pid: v.p.PID, addr: v.addr})
	}

	conns := make(map[*conn]*connSnap)
	lists := make(map[*listener]*listenerSnap)
	snapConn := func(c *conn) *connSnap {
		if cs, ok := conns[c]; ok {
			return cs
		}
		cs := &connSnap{
			in:         append([]byte(nil), c.in...),
			request:    append([]byte(nil), c.request...),
			remaining:  c.remaining,
			completed:  c.completed,
			awaiting:   c.awaiting,
			closed:     c.closed,
			onResponse: c.onResponse,
		}
		conns[c] = cs
		return cs
	}
	snapListener := func(l *listener) *listenerSnap {
		if ls, ok := lists[l]; ok {
			return ls
		}
		ls := &listenerSnap{port: l.port, accepted: l.accepted, completed: l.completed}
		for _, c := range l.backlog {
			ls.backlog = append(ls.backlog, snapConn(c))
		}
		lists[l] = ls
		return ls
	}
	for port, l := range k.net.listeners {
		s.listeners[port] = snapListener(l)
	}

	// hostSnaps memoizes HostState snapshots by object, so state shared
	// across fork (loader, interposer) is captured once.
	hostSnaps := make(map[any]any)
	for _, pid := range s.order {
		p, ok := k.procs[pid]
		if !ok {
			continue
		}
		var prevPS *procSnap
		if prev != nil {
			prevPS = prev.procs[pid]
		}
		ps, err := k.snapshotProc(p, prevPS, snapConn, snapListener, hostSnaps)
		if err != nil {
			return nil, err
		}
		s.procs[pid] = ps
	}
	return s, nil
}

func (k *Kernel) snapshotProc(p *Process, prev *procSnap,
	snapConn func(*conn) *connSnap, snapListener func(*listener) *listenerSnap,
	hostSnaps map[any]any) (*procSnap, error) {

	ps := &procSnap{
		p:             p,
		path:          p.Path,
		argv:          append([]string(nil), p.Argv...),
		env:           append([]string(nil), p.Env...),
		state:         p.State,
		exit:          p.Exit,
		parent:        p.Parent,
		stdout:        append([]byte(nil), p.Stdout...),
		stderr:        append([]byte(nil), p.Stderr...),
		as:            p.AS,
		nextFD:        p.nextFD,
		sudEverArmed:  p.sudEverArmed,
		vdsoDisabled:  p.VDSODisabled,
		traceExecve:   p.traceExecve,
		pkeyAllocated: p.pkeyAllocated,
		seccomp:       append([]*seccompFilter(nil), p.seccomp...),
		hostcallsRef:  p.Hostcalls,
		nextTID:       p.nextTID,
	}

	// Delta against prev only when it snapshotted the SAME address-space
	// object: generation counters are per-AS, so cross-object comparison
	// (execve replaced the image in between) would falsely share pages.
	var prevAS *mem.ASState
	if prev != nil && prev.as == p.AS {
		prevAS = prev.asState
	}
	ps.asState = p.AS.SnapshotState(prevAS)

	ps.sigHandlers = make(map[int]sigAction, len(p.sigHandlers))
	for sig, act := range p.sigHandlers {
		ps.sigHandlers[sig] = act
	}
	ps.fds = make(map[int]*fdSnap, len(p.fds))
	for n, f := range p.fds {
		fs := &fdSnap{kind: f.kind, path: f.path,
			data: append([]byte(nil), f.data...), off: f.off, flags: f.flags}
		if f.listener != nil {
			fs.listener = snapListener(f.listener)
		}
		if f.conn != nil {
			fs.conn = snapConn(f.conn)
		}
		ps.fds[n] = fs
	}
	ps.hostcalls = make(map[int32]*Hostcall, len(p.Hostcalls))
	for id, h := range p.Hostcalls {
		ps.hostcalls[id] = h
	}

	var err error
	ps.loaderRef = p.LoaderState
	if ps.loaderState, err = snapshotHost(hostSnaps, p.LoaderState, "loader state", p.PID); err != nil {
		return nil, err
	}
	ps.interpRef = p.Interposer
	if ps.interpState, err = snapshotHost(hostSnaps, p.Interposer, "interposer state", p.PID); err != nil {
		return nil, err
	}
	if p.tracer != nil {
		ps.tracerRef = p.tracer
		if ps.tracerState, err = snapshotHost(hostSnaps, p.tracer, "tracer", p.PID); err != nil {
			return nil, err
		}
	}

	for _, t := range p.Threads {
		ps.threads = append(ps.threads, threadSnap{
			t:           t,
			core:        t.Core,
			state:       t.State,
			sud:         t.sud,
			sigFrames:   append([]sigFrame(nil), t.sigFrames...),
			wakeDesc:    t.wakeDesc,
			entryLen:    t.entryLen,
			entrySite:   t.entrySite,
			blockedLen:  t.blockedLen,
			infraFrames: t.infraFrames,
			extraCycles: t.ExtraCycles,
			coreState:   t.Core.SnapshotState(),
		})
	}
	return ps, nil
}

// snapshotHost snapshots one opaque host-state object through the
// HostState interface, memoized by object.
func snapshotHost(memo map[any]any, ref any, what string, pid int) (any, error) {
	if ref == nil {
		return nil, nil
	}
	if st, ok := memo[ref]; ok {
		return st, nil
	}
	hs, ok := ref.(HostState)
	if !ok {
		return nil, fmt.Errorf("kernel: checkpoint: pid %d %s (%T) does not implement HostState", pid, what, ref)
	}
	st := hs.SnapshotHostState()
	memo[ref] = st
	return st, nil
}

// Restore rewinds the kernel to the snapshot, in place. Processes and
// threads created after the checkpoint are dropped (their synthetic
// /proc files unregistered); everything in the snapshot resumes with
// object identity intact.
func (k *Kernel) Restore(s *Snapshot) {
	// Drop post-checkpoint processes.
	for pid := range k.procs {
		if _, ok := s.procs[pid]; !ok {
			k.FS.UnregisterSynthetic(fmt.Sprintf("/proc/%d/maps", pid))
			delete(k.procs, pid)
		}
	}
	k.order = append([]int(nil), s.order...)
	k.nextPID = s.nextPID
	k.VClock = s.vclock
	k.eventSeq = s.eventSeq
	k.phaseSeq = s.phaseSeq
	k.profileNext = s.profileNext
	k.stopHit = false

	k.FS.RestoreState(s.fs)

	if k.chaos != nil && s.chaos != nil {
		c := k.chaos
		c.seed = s.chaos.seed
		c.injected = s.chaos.injected
		c.q = s.chaos.q
		c.scriptIdx = s.chaos.scriptIdx
		if len(c.hits) > s.chaos.hits {
			c.hits = c.hits[:s.chaos.hits]
		}
	}
	if k.Sfip != nil && s.sfip != nil {
		k.Sfip.RestoreHostState(s.sfip)
	}

	// Rebuild the socket layer. Memoization by snapshot object restores
	// the aliasing structure (fds sharing a conn, backlog entries).
	conns := make(map[*connSnap]*conn)
	lists := make(map[*listenerSnap]*listener)
	restoreConn := func(cs *connSnap) *conn {
		if c, ok := conns[cs]; ok {
			return c
		}
		c := &conn{
			in:         append([]byte(nil), cs.in...),
			request:    append([]byte(nil), cs.request...),
			remaining:  cs.remaining,
			completed:  cs.completed,
			awaiting:   cs.awaiting,
			closed:     cs.closed,
			onResponse: cs.onResponse,
		}
		conns[cs] = c
		return c
	}
	restoreListener := func(ls *listenerSnap) *listener {
		if l, ok := lists[ls]; ok {
			return l
		}
		l := &listener{port: ls.port, accepted: ls.accepted, completed: ls.completed}
		for _, cs := range ls.backlog {
			l.backlog = append(l.backlog, restoreConn(cs))
		}
		lists[ls] = l
		return l
	}
	k.net.listeners = make(map[int]*listener, len(s.listeners))
	for port, ls := range s.listeners {
		k.net.listeners[port] = restoreListener(ls)
	}

	// restoredHost tracks which shared host-state objects have been
	// rewound already (fork-shared loader/interposer state).
	restoredHost := make(map[any]bool)
	for _, pid := range s.order {
		ps, ok := s.procs[pid]
		if !ok {
			continue
		}
		k.restoreProc(ps, restoreConn, restoreListener, restoredHost)
	}

	k.vvars = k.vvars[:0]
	for _, v := range s.vvars {
		if p, ok := k.procs[v.pid]; ok {
			k.vvars = append(k.vvars, vvarReg{p: p, addr: v.addr})
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

func (k *Kernel) restoreProc(ps *procSnap,
	restoreConn func(*connSnap) *conn, restoreListener func(*listenerSnap) *listener,
	restoredHost map[any]bool) {

	p := ps.p
	k.procs[p.PID] = p
	p.Path = ps.path
	p.Argv = append([]string(nil), ps.argv...)
	p.Env = append([]string(nil), ps.env...)
	p.State = ps.state
	p.Exit = ps.exit
	p.Parent = ps.parent
	p.Stdout = append([]byte(nil), ps.stdout...)
	p.Stderr = append([]byte(nil), ps.stderr...)
	p.AS = ps.as
	p.AS.RestoreState(ps.asState)
	p.nextFD = ps.nextFD
	p.sudEverArmed = ps.sudEverArmed
	p.VDSODisabled = ps.vdsoDisabled
	p.traceExecve = ps.traceExecve
	p.pkeyAllocated = ps.pkeyAllocated
	p.seccomp = append([]*seccompFilter(nil), ps.seccomp...)
	p.nextTID = ps.nextTID

	p.sigHandlers = make(map[int]sigAction, len(ps.sigHandlers))
	for sig, act := range ps.sigHandlers {
		p.sigHandlers[sig] = act
	}
	p.fds = make(map[int]*fd, len(ps.fds))
	for n, fs := range ps.fds {
		f := &fd{kind: fs.kind, path: fs.path,
			data: append([]byte(nil), fs.data...), off: fs.off, flags: fs.flags}
		if fs.listener != nil {
			f.listener = restoreListener(fs.listener)
		}
		if fs.conn != nil {
			f.conn = restoreConn(fs.conn)
		}
		p.fds[n] = f
	}

	// Refill the hostcall map object in place: fork-time sharing (child
	// and parent pointing at one map) is preserved because both procSnaps
	// name the same object, and the refill is idempotent.
	for id := range ps.hostcallsRef {
		delete(ps.hostcallsRef, id)
	}
	for id, h := range ps.hostcalls {
		ps.hostcallsRef[id] = h
	}
	p.Hostcalls = ps.hostcallsRef

	p.LoaderState = ps.loaderRef
	restoreHost(restoredHost, ps.loaderRef, ps.loaderState)
	p.Interposer = ps.interpRef
	restoreHost(restoredHost, ps.interpRef, ps.interpState)
	p.tracer = ps.tracerRef
	if ps.tracerRef != nil {
		restoreHost(restoredHost, ps.tracerRef, ps.tracerState)
	}

	threads := make([]*Thread, 0, len(ps.threads))
	for i := range ps.threads {
		ts := &ps.threads[i]
		t := ts.t
		threads = append(threads, t)
		t.State = ts.state
		t.sud = ts.sud
		t.sigFrames = append([]sigFrame(nil), ts.sigFrames...)
		t.entryLen = ts.entryLen
		t.entrySite = ts.entrySite
		t.blockedLen = ts.blockedLen
		t.infraFrames = ts.infraFrames
		t.ExtraCycles = ts.extraCycles
		t.Core = ts.core
		t.Core.RestoreState(ts.coreState)
		t.wakeDesc = ts.wakeDesc
		t.wake = nil
		if t.State == ThreadBlocked {
			t.wake = k.rebuildWake(t, ts.wakeDesc)
		}
	}
	p.Threads = threads
}

// restoreHost rewinds one opaque host-state object, at most once per
// Restore (shared state is named by several procSnaps).
func restoreHost(done map[any]bool, ref, state any) {
	if ref == nil || done[ref] {
		return
	}
	done[ref] = true
	ref.(HostState).RestoreHostState(state)
}

// rebuildWake reconstructs a blocked thread's wake predicate from its
// serializable descriptor, against the restored kernel objects.
func (k *Kernel) rebuildWake(t *Thread, d wakeDesc) func() bool {
	p := t.Proc
	switch d.kind {
	case wakeAcceptFD:
		if f, ok := p.fds[d.arg]; ok && f.listener != nil {
			return f.listener.pending
		}
	case wakeConnReadFD:
		if f, ok := p.fds[d.arg]; ok && f.conn != nil {
			return f.conn.readable
		}
	case wakeWait4PID:
		pid := d.arg
		return func() bool { return k.findZombieChild(p, pid) != nil }
	}
	// A descriptor that no longer resolves (fd closed by a racing path —
	// cannot happen on a quiescent checkpoint, but stay safe): the thread
	// never wakes, which is also what the live kernel would do.
	return func() bool { return false }
}

// findZombieChild returns p's first zombie child matching pid (<= 0 for
// any), scanning in PID creation order so identical runs reap
// identically. Shared by sysWait4 and restored wait4 wake predicates.
func (k *Kernel) findZombieChild(p *Process, pid int) *Process {
	for _, cpid := range k.order {
		c, ok := k.procs[cpid]
		if !ok {
			continue
		}
		if c.Parent == p && c.State == ProcZombie {
			if pid <= 0 || c.PID == pid {
				return c
			}
		}
	}
	return nil
}

// StateHash returns a deterministic FNV-1a hash over the kernel's
// complete guest-visible state: the scalar clocks, scheduling order,
// chaos position, VFS tree, socket layer, and every process's memory,
// fds, signal table and thread contexts (architectural core state
// including the I-cache; decode/JIT caches excluded — they are proven
// transparent). The checkpoint property tests compare it across
// Checkpoint/mutate/Restore cycles; the replay battery compares it at
// end of run.
func (k *Kernel) StateHash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "k %d %d %d\n", k.VClock, k.eventSeq, k.nextPID)
	for _, pid := range k.order {
		fmt.Fprintf(h, "o %d\n", pid)
	}
	if k.chaos != nil {
		c := k.chaos
		fmt.Fprintf(h, "c %d %d %d %d %d\n", c.seed, c.injected, c.q, c.scriptIdx, len(c.hits))
	}
	if k.Sfip != nil {
		fmt.Fprintf(h, "sfip %#x\n", k.Sfip.HashState())
	}
	fmt.Fprintf(h, "fs %#x\n", k.FS.Hash())

	hashConn := func(c *conn) {
		fmt.Fprintf(h, "conn %d %d %v %v %d ", c.remaining, c.completed, c.awaiting, c.closed, len(c.in))
		h.Write(c.in)
		h.Write(c.request)
		h.Write([]byte{'\n'})
	}
	ports := make([]int, 0, len(k.net.listeners))
	for port := range k.net.listeners {
		ports = append(ports, port)
	}
	sort.Ints(ports)
	for _, port := range ports {
		l := k.net.listeners[port]
		fmt.Fprintf(h, "l %d %d %d %d\n", port, l.accepted, l.completed, len(l.backlog))
		for _, c := range l.backlog {
			hashConn(c)
		}
	}

	for _, p := range k.Processes() {
		fmt.Fprintf(h, "p %d %q %d %d %d %q %d %v %v %v %d\n",
			p.PID, p.Path, p.State, p.Exit.Code, p.Exit.Signal, p.Exit.Fault,
			p.nextFD, p.sudEverArmed, p.VDSODisabled, p.traceExecve, p.nextTID)
		fmt.Fprintf(h, "argv %q env %q\n", p.Argv, p.Env)
		fmt.Fprintf(h, "out %d ", len(p.Stdout))
		h.Write(p.Stdout)
		fmt.Fprintf(h, " err %d ", len(p.Stderr))
		h.Write(p.Stderr)
		h.Write([]byte{'\n'})
		fmt.Fprintf(h, "as %#x\n", p.AS.StateHash())

		sigs := make([]int, 0, len(p.sigHandlers))
		for sig := range p.sigHandlers {
			sigs = append(sigs, sig)
		}
		sort.Ints(sigs)
		for _, sig := range sigs {
			act := p.sigHandlers[sig]
			fmt.Fprintf(h, "sig %d %#x %#x\n", sig, act.handler, act.flags)
		}
		for i, on := range p.pkeyAllocated {
			if on {
				fmt.Fprintf(h, "pkey %d\n", i)
			}
		}
		fmt.Fprintf(h, "seccomp %d\n", len(p.seccomp))
		for _, f := range p.seccomp {
			fmt.Fprintf(h, "filt %d %#x\n", len(f.rules), f.defaultAction)
			for _, r := range f.rules {
				fmt.Fprintf(h, "rule %d %v %d %d %#x\n", r.nr, r.hasArgCond, r.argIdx, r.argVal, r.action)
			}
		}

		fdn := make([]int, 0, len(p.fds))
		for n := range p.fds {
			fdn = append(fdn, n)
		}
		sort.Ints(fdn)
		for _, n := range fdn {
			f := p.fds[n]
			fmt.Fprintf(h, "fd %d %d %q %d %#x %d ", n, f.kind, f.path, f.off, f.flags, len(f.data))
			h.Write(f.data)
			h.Write([]byte{'\n'})
			if f.listener != nil {
				fmt.Fprintf(h, "fdl %d\n", f.listener.port)
			}
			if f.conn != nil {
				hashConn(f.conn)
			}
		}

		for _, t := range p.Threads {
			fmt.Fprintf(h, "t %d %d %d %d %d %d %d %d\n",
				t.TID, t.State, t.entryLen, t.entrySite, t.blockedLen,
				t.infraFrames, t.ExtraCycles, len(t.sigFrames))
			fmt.Fprintf(h, "sud %v %#x %#x %#x\n", t.sud.on, t.sud.selectorAddr, t.sud.allowStart, t.sud.allowLen)
			fmt.Fprintf(h, "wd %d %d\n", t.wakeDesc.kind, t.wakeDesc.arg)
			for _, fr := range t.sigFrames {
				fmt.Fprintf(h, "fr %#x %#x\n", fr.ucontextAddr, fr.savedRSP)
			}
			c := t.Core
			for r := 0; r < cpu.NumRegs; r++ {
				fmt.Fprintf(h, "r%d %#x\n", r, c.Ctx.R[r])
			}
			fmt.Fprintf(h, "rip %#x fl %#x pkru %#x tls %#x cyc %d in %d cmc %d\n",
				c.Ctx.RIP, c.Ctx.Flags(), uint32(c.PKRU), c.TLS, c.Cycles, c.Insts, c.CMCViolations)
			lines := c.SnapshotState().ICache
			sort.Slice(lines, func(i, j int) bool { return lines[i].Base < lines[j].Base })
			for _, ln := range lines {
				fmt.Fprintf(h, "ic %#x %d ", ln.Base, ln.Gen)
				h.Write(ln.Data[:])
				h.Write([]byte{'\n'})
			}
		}
	}
	return h.Sum64()
}
