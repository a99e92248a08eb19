package kernel

import (
	"encoding/binary"
	"fmt"

	"k23/internal/cpu"
	"k23/internal/mem"
	"k23/internal/vfs"
)

// System call numbers, matching Linux x86-64 where the call exists there.
const (
	SysRead           = 0
	SysWrite          = 1
	SysOpen           = 2
	SysClose          = 3
	SysStat           = 4
	SysFstat          = 5
	SysMmap           = 9
	SysMprotect       = 10
	SysMunmap         = 11
	SysBrk            = 12
	SysRtSigaction    = 13
	SysRtSigprocmask  = 14
	SysRtSigreturn    = 15
	SysIoctl          = 16
	SysAccess         = 21
	SysSchedYield     = 24
	SysMadvise        = 28
	SysNanosleep      = 35
	SysGetpid         = 39
	SysSocket         = 41
	SysAccept         = 43
	SysSendto         = 44
	SysRecvfrom       = 45
	SysBind           = 49
	SysListen         = 50
	SysClone          = 56
	SysFork           = 57
	SysExecve         = 59
	SysExit           = 60
	SysWait4          = 61
	SysKill           = 62
	SysUname          = 63
	SysFcntl          = 72
	SysGetcwd         = 79
	SysChdir          = 80
	SysMkdir          = 83
	SysUnlink         = 87
	SysChmod          = 90
	SysGettimeofday   = 96
	SysPtrace         = 101
	SysGetuid         = 102
	SysPrctl          = 157
	SysArchPrctl      = 158
	SysGettid         = 186
	SysTime           = 201
	SysFutex          = 202
	SysEpollWait      = 232
	SysEpollCtl       = 233
	SysClockGettime   = 228
	SysExitGroup      = 231
	SysOpenat         = 257
	SysAccept4        = 288
	SysEpollCreate1   = 291
	SysProcessVMReadv = 310
	SysGetrandom      = 318
	SysPkeyMprotect   = 329
	SysPkeyAlloc      = 330
	SysPkeyFree       = 331
)

// Errno values (returned negated, per the Linux ABI).
const (
	EPERM      = 1
	ENOENT     = 2
	EINTR      = 4
	EBADF      = 9
	EAGAIN     = 11
	ENOMEM     = 12
	EACCES     = 13
	EFAULT     = 14
	EEXIST     = 17
	ENOTDIR    = 20
	EISDIR     = 21
	EINVAL     = 22
	EMFILE     = 24
	ENOSYS     = 38
	ENOTSOCK   = 88
	EADDRINUSE = 98
	ENOTCONN   = 107
)

// errnoNames spells every errno the kernel returns.
var errnoNames = [...]string{
	EPERM: "EPERM", ENOENT: "ENOENT", EINTR: "EINTR", EBADF: "EBADF", EAGAIN: "EAGAIN",
	ENOMEM: "ENOMEM", EACCES: "EACCES", EFAULT: "EFAULT", EEXIST: "EEXIST",
	ENOTDIR: "ENOTDIR", EISDIR: "EISDIR", EINVAL: "EINVAL", EMFILE: "EMFILE",
	ENOSYS: "ENOSYS", ENOTSOCK: "ENOTSOCK", EADDRINUSE: "EADDRINUSE", ENOTCONN: "ENOTCONN",
}

// ErrnoName returns the symbolic name of errno e ("E42" if unknown).
func ErrnoName(e int) string {
	if e >= 0 && e < len(errnoNames) && errnoNames[e] != "" {
		return errnoNames[e]
	}
	return fmt.Sprintf("E%d", e)
}

// errno encodes -e as a uint64 return value.
func errno(e int) uint64 { return uint64(-int64(e)) }

// IsErr reports whether a syscall return value encodes an errno, and
// which one.
func IsErr(ret uint64) (int, bool) {
	if int64(ret) < 0 && int64(ret) > -4096 {
		return int(-int64(ret)), true
	}
	return 0, false
}

// prctl operation and SUD mode constants (Linux values).
const (
	PrSetSyscallUserDispatch = 59
	PrSysDispatchOff         = 0
	PrSysDispatchOn          = 1
)

// open(2) flag bits (Linux values).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// mmap prot/flags bits (Linux values).
const (
	ProtRead  = 0x1
	ProtWrite = 0x2
	ProtExec  = 0x4
	MapFixed  = 0x10
)

// fdKind distinguishes file descriptor flavours.
type fdKind uint8

const (
	fdFile fdKind = iota
	fdListener
	fdConn
	fdSocket // created but not yet bound/connected
	fdEpoll
)

type fd struct {
	kind     fdKind
	path     string
	data     []byte // file snapshot for reads
	off      int
	flags    uint64
	listener *listener
	conn     *conn
}

// protToPerm converts mmap/mprotect prot bits to mem permissions.
func protToPerm(prot uint64) mem.Perm {
	var p mem.Perm
	if prot&ProtRead != 0 {
		p |= mem.PermRead
	}
	if prot&ProtWrite != 0 {
		p |= mem.PermWrite
	}
	if prot&ProtExec != 0 {
		p |= mem.PermExec
	}
	return p
}

// PermToProt converts mem permissions to prot bits (used by interposer
// code calling mprotect).
func PermToProt(p mem.Perm) uint64 {
	var prot uint64
	if p&mem.PermRead != 0 {
		prot |= ProtRead
	}
	if p&mem.PermWrite != 0 {
		prot |= ProtWrite
	}
	if p&mem.PermExec != 0 {
		prot |= ProtExec
	}
	return prot
}

// handleSyscall services a SYSCALL/SYSENTER stop at site.
func (k *Kernel) handleSyscall(t *Thread, site uint64) {
	p := t.Proc
	ctx := &t.Core.Ctx
	nr := ctx.R[cpu.RAX]

	// Record the in-flight entry instruction: RIP already points past it,
	// so its length is the distance back to the trap site. blockThread
	// rewinds by exactly this much, whatever the entry encoding (SYSCALL,
	// SYSENTER, a trampoline's re-issued SYSCALL).
	t.entryLen = ctx.RIP - site
	t.entrySite = site

	// costBase snapshots the thread's cycle account so the exit event can
	// report the call's full charged cost (trap, kernel work, SUD slow
	// path, ptrace stops, signal frames). Only computed when observed.
	var costBase uint64
	if k.Tracing() {
		costBase = t.Cycles()
	}

	k.EmitPhase(t, PhTrap, nr, site, "")

	t.charge(k.Cost.Trap)
	if p.sudEverArmed {
		// Arming SUD moves every syscall in the process onto a slower
		// kernel entry path, selector state notwithstanding (§6.2.1).
		t.charge(k.Cost.SUDSlowPath)
	}

	// Syscall User Dispatch check (before ptrace, as in the kernel's
	// entry work ordering).
	if t.sud.on && !(site >= t.sud.allowStart && site < t.sud.allowStart+t.sud.allowLen) {
		var sel [1]byte
		if err := p.AS.KRead(t.sud.selectorAddr, sel[:]); err != nil {
			k.killProcess(p, SIGSEGV, fmt.Sprintf("SUD selector unreadable at %#x", t.sud.selectorAddr))
			return
		}
		if sel[0] == SelectorBlock {
			if k.Tracing() {
				k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvSudSigsys, Num: nr, Site: site})
			}
			// The kernel never services this call: it is diverted to the
			// SUD handler as SIGSYS. Close the trap span before the signal
			// span opens (the handler episode tells the rest of the story).
			k.EmitPhase(t, PhReturn, nr, site, "sud-sigsys")
			k.deliverSignal(t, SIGSYS, sigInfo{
				signo:    SIGSYS,
				syscall:  nr,
				callAddr: site + uint64(cpu.SyscallInstLen),
				code:     SiCodeUserDispatch,
			})
			return
		}
	}

	// seccomp filters (after SUD, before ptrace, as in the kernel's
	// syscall entry work).
	if !k.seccompCheck(t, nr, site) {
		return
	}

	// ptrace syscall-entry stop.
	var args [6]uint64
	for i := range args {
		args[i] = ctx.Arg(i)
	}
	if k.Tracing() {
		k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvEnter, Num: nr, Site: site, Args: args})
	}
	if p.tracer != nil {
		t.charge(k.Cost.PtraceStop)
		if p.tracer.SyscallEnter(k, t, nr, site) {
			// Suppressed: the tracer has set the result registers.
			if p.tracer != nil {
				t.charge(k.Cost.PtraceStop)
			}
			if k.Tracing() {
				k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvExit, Num: nr, Site: site,
					Ret: ctx.R[cpu.RAX], Cost: t.Cycles() - costBase, Detail: "suppressed"})
			}
			k.EmitPhase(t, PhReturn, nr, site, "suppressed")
			return
		}
		// The tracer may have rewritten the number or arguments.
		nr = ctx.R[cpu.RAX]
		for i := range args {
			args[i] = ctx.Arg(i)
		}
	}

	ret, noReturn := k.executeSyscall(t, nr, args, site)
	if !noReturn {
		ctx.R[cpu.RAX] = ret
	}
	if k.Tracing() {
		k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvExit, Num: nr, Site: site, Ret: ret,
			Cost: t.Cycles() - costBase})
	}

	if p.State == ProcRunning && p.tracer != nil && !noReturn {
		t.charge(k.Cost.PtraceStop)
	}

	// A blocked call's span was closed by PhBlock (it re-enters through
	// its rewound entry instruction and gets a fresh trap span); everything
	// else — including noReturn exits, whose span the exiting-process
	// cleanup would otherwise leave dangling — returns here.
	if t.State != ThreadBlocked {
		k.EmitPhase(t, PhReturn, nr, site, "")
	}
}

// executeSyscall runs the system call service routine and publishes the
// ground-truth oracle event: one EvOracle per syscall the kernel actually
// executed, whatever the entry path (guest trap or interposer-issued
// DirectSyscall). The origin is captured BEFORE the body runs — execve
// replaces the image and its nested startup calls clobber the in-flight
// trap record — and the event is emitted AFTER, so Ret is the real
// result. A call that blocked is not an execution: it re-enters through
// its rewound entry instruction and completes (and is emitted) exactly
// once; the EINTR abort path emits its own oracle from
// interruptBlockedSyscall. Cost when disabled: one nil-check.
func (k *Kernel) executeSyscall(t *Thread, nr uint64, a [6]uint64, site uint64) (ret uint64, noReturn bool) {
	// Phase mark: kernel service work begins (charged kernel cycles from
	// here to PhReturn/PhBlock are the "kernel" slice of the span).
	k.EmitPhase(t, PhKernel, nr, site, "")
	if !k.Tracing() && k.Sfip == nil {
		return k.serviceSyscall(t, nr, a, site)
	}
	trapped := t.entryLen != 0
	pid, tid := t.Proc.PID, t.TID
	// SFIP checks run on the pre-body trap record: only raw guest SYSCALL
	// instructions (not interposer host infrastructure) cross the policy
	// boundary, and a blocked call re-enters through its rewound entry so
	// the check reruns against the same predecessor until it completes.
	if k.Sfip != nil && trapped && t.infraFrames == 0 {
		if violation, deny := k.Sfip.Check(pid, tid, nr, site); violation != "" {
			if k.Tracing() {
				k.emit(Event{PID: pid, TID: tid, Kind: EvSfipViolation, Num: nr, Site: site, Args: a, Detail: violation})
			}
			if deny {
				if k.Sfip.Enforcing() {
					t.charge(k.Cost.SfipCheck)
				}
				return errno(EPERM), false
			}
		}
		if k.Sfip.Enforcing() {
			t.charge(k.Cost.SfipCheck)
		}
	}
	ret, noReturn = k.serviceSyscall(t, nr, a, site)
	if t.State != ThreadBlocked {
		origin := "direct"
		if trapped {
			origin = "trap"
			if t.infraFrames > 0 {
				origin = "hostcall"
			}
		}
		if k.Sfip != nil && origin == "trap" {
			k.Sfip.Commit(pid, tid, nr)
		}
		if k.Tracing() {
			ev := Event{PID: pid, TID: tid, Kind: EvOracle, Num: nr, Site: site, Ret: ret, Args: a, Detail: origin}
			k.emit(ev)
		}
	}
	return ret, noReturn
}

// serviceSyscall is the system call service routine body: it runs nr's
// handler from the syscall table. noReturn is true when the routine
// replaced the thread context (execve, exit, rt_sigreturn) or blocked
// the thread, and RAX must not be overwritten.
func (k *Kernel) serviceSyscall(t *Thread, nr uint64, a [6]uint64, site uint64) (ret uint64, noReturn bool) {
	t.charge(k.Cost.KernelWork)

	// Chaos: transient failure at syscall entry. Only guest traps are
	// eligible (entryLen != 0) — DirectSyscall-driven host logic and
	// conformance probes see the unperturbed kernel.
	if k.chaos != nil && t.entryLen != 0 {
		if e := k.chaos.transientErrno(nr); e != 0 {
			k.emitChaos(t, nr, func() string { return "transient " + ErrnoName(e) })
			return errno(e), false
		}
	}

	sc := lookupSyscall(nr)
	if sc != nil && sc.do != nil {
		return sc.do(k, t, a)
	}
	// Unknown system calls (including the microbenchmark's number 500
	// and K23's fake handoff calls) and the named but unmodelled ones
	// take the full entry path and fail with ENOSYS.
	why := "unimplemented"
	if sc != nil {
		why = sc.Name + " not modelled"
	}
	k.emitUnknownSyscall(t, nr, site, why)
	return errno(ENOSYS), false
}

// Syscall table handlers. Each takes the six argument registers and
// returns the result and noReturn (see serviceSyscall). Handlers tied to
// one subsystem live with it (net.go, signals.go, seccomp.go).

// sysNop succeeds without effect: calls whose state the simulation does
// not model (brk, ioctl, fcntl, futex, ...).
func (k *Kernel) sysNop(*Thread, [6]uint64) (uint64, bool) { return 0, false }

func (k *Kernel) sysGetpid(t *Thread, _ [6]uint64) (uint64, bool) { return uint64(t.Proc.PID), false }
func (k *Kernel) sysGettid(t *Thread, _ [6]uint64) (uint64, bool) { return uint64(t.TID), false }
func (k *Kernel) sysGetuid(*Thread, [6]uint64) (uint64, bool)     { return 1000, false }

func (k *Kernel) sysOpenat(t *Thread, a [6]uint64) (uint64, bool) {
	return k.sysOpen(t, [6]uint64{a[1], a[2]})
}

func (k *Kernel) sysMunmap(t *Thread, a [6]uint64) (uint64, bool) {
	if err := t.Proc.AS.Unmap(a[0], a[1]); err != nil {
		return errno(EINVAL), false
	}
	return 0, false
}

func (k *Kernel) sysAccess(t *Thread, a [6]uint64) (uint64, bool) {
	path, err := t.Proc.AS.KLoadString(a[0], 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	if k.FS.Exists(path) {
		return 0, false
	}
	return errno(ENOENT), false
}

func (k *Kernel) sysGetcwd(t *Thread, a [6]uint64) (uint64, bool) {
	if err := k.storeString(t, a[0], a[1], "/"); err != nil {
		return errno(EFAULT), false
	}
	return 2, false
}

func (k *Kernel) sysUname(t *Thread, a [6]uint64) (uint64, bool) {
	if err := k.storeString(t, a[0], 65, "SimLinux"); err != nil {
		return errno(EFAULT), false
	}
	return 0, false
}

func (k *Kernel) sysMkdir(t *Thread, a [6]uint64) (uint64, bool) {
	path, err := t.Proc.AS.KLoadString(a[0], 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	if err := k.FS.MkdirAll(path); err != nil {
		return errno(EPERM), false
	}
	return 0, false
}

func (k *Kernel) sysUnlink(t *Thread, a [6]uint64) (uint64, bool) {
	path, err := t.Proc.AS.KLoadString(a[0], 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	switch err := k.FS.Unlink(path); err {
	case nil:
		return 0, false
	case vfs.ErrNotExist:
		return errno(ENOENT), false
	default:
		return errno(EPERM), false
	}
}

func (k *Kernel) sysChmod(t *Thread, a [6]uint64) (uint64, bool) {
	path, err := t.Proc.AS.KLoadString(a[0], 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	if err := k.FS.Chmod(path, vfs.Mode(a[1])); err != nil {
		return errno(EPERM), false
	}
	return 0, false
}

func (k *Kernel) sysEpollCreate1(t *Thread, _ [6]uint64) (uint64, bool) {
	return k.allocFD(t.Proc, &fd{kind: fdEpoll}), false
}

// Exit statuses are 8-bit, as on Linux.
func (k *Kernel) sysExit(t *Thread, a [6]uint64) (uint64, bool) {
	k.exitThread(t, int(a[0]&0xff))
	return 0, true
}

func (k *Kernel) sysExitGroup(t *Thread, a [6]uint64) (uint64, bool) {
	for _, th := range t.Proc.Threads {
		th.State = ThreadExited
	}
	k.finishProcess(t.Proc, ExitInfo{Code: int(a[0] & 0xff)})
	return 0, true
}

func (k *Kernel) sysKill(t *Thread, a [6]uint64) (uint64, bool) {
	if target, ok := k.procs[int(a[0])]; ok {
		return k.signalProcess(t, target, int(a[1]))
	}
	return errno(ENOENT), false
}

func (k *Kernel) sysPkeyAlloc(t *Thread, _ [6]uint64) (uint64, bool) {
	p := t.Proc
	for i := 1; i < mem.NumPkeys; i++ {
		if !p.pkeyAllocated[i] {
			p.pkeyAllocated[i] = true
			return uint64(i), false
		}
	}
	return errno(ENOMEM), false
}

func (k *Kernel) sysPkeyFree(t *Thread, a [6]uint64) (uint64, bool) {
	if a[0] < mem.NumPkeys {
		t.Proc.pkeyAllocated[a[0]] = false
		return 0, false
	}
	return errno(EINVAL), false
}

func (k *Kernel) sysPkeyMprotect(t *Thread, a [6]uint64) (uint64, bool) {
	if err := t.Proc.AS.ProtectWithKey(a[0], a[1], protToPerm(a[2]), int(a[3])); err != nil {
		return errno(EINVAL), false
	}
	return 0, false
}

// emitUnknownSyscall publishes the visibility event for a syscall the
// kernel is about to reject with ENOSYS. Without it an
// interposer-escaped *unknown* syscall would be invisible to the audit
// ledger and the SFIP learner — the oracle event alone does not say why
// the call failed. Cost when untraced: one nil-check.
func (k *Kernel) emitUnknownSyscall(t *Thread, nr, site uint64, why string) {
	if !k.Tracing() {
		return
	}
	k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvUnknownSyscall,
		Num: nr, Site: site, Ret: errno(ENOSYS), Detail: why})
}

// copyOut writes syscall result data into user memory, honouring page
// permissions and the calling thread's PKRU — as the real kernel's
// copy_to_user does. A PKU-protected trampoline page therefore faults
// (EFAULT) instead of being silently corrupted by a stray out-pointer.
func (k *Kernel) copyOut(t *Thread, addr uint64, b []byte) bool {
	return t.Proc.AS.Store(addr, b, t.Core.PKRU) == nil
}

// storeString writes a NUL-terminated string into guest memory, bounded
// by max bytes.
func (k *Kernel) storeString(t *Thread, addr, max uint64, s string) error {
	b := append([]byte(s), 0)
	if uint64(len(b)) > max {
		b = b[:max]
		b[max-1] = 0
	}
	if !k.copyOut(t, addr, b) {
		return &mem.Fault{Addr: addr, Access: mem.AccessWrite}
	}
	return nil
}

func (k *Kernel) allocFD(p *Process, f *fd) uint64 {
	n := p.nextFD
	p.nextFD++
	p.fds[n] = f
	return uint64(n)
}

func (k *Kernel) sysOpen(t *Thread, a [6]uint64) (uint64, bool) {
	pathAddr, flags := a[0], a[1]
	p := t.Proc
	path, err := p.AS.KLoadString(pathAddr, 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	exists := k.FS.Exists(path)
	if !exists && flags&OCreat == 0 {
		return errno(ENOENT), false
	}
	if !exists {
		if err := k.FS.WriteFile(path, nil, vfs.ModeRW); err != nil {
			return errno(EPERM), false
		}
	}
	if flags&OTrunc != 0 {
		if err := k.FS.WriteFile(path, nil, vfs.ModeRW); err != nil {
			return errno(EPERM), false
		}
	}
	var data []byte
	if exists && !k.FS.IsDir(path) {
		data, err = k.FS.ReadFile(path)
		if err != nil && err != vfs.ErrPerm {
			return errno(EACCES), false
		}
	}
	return k.allocFD(p, &fd{kind: fdFile, path: path, data: data, flags: flags}), false
}

func (k *Kernel) sysClose(t *Thread, a [6]uint64) (uint64, bool) {
	n := int(a[0])
	p := t.Proc
	f, ok := p.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	if f.kind == fdConn && f.conn != nil {
		f.conn.closeServerSide()
	}
	delete(p.fds, n)
	return 0, false
}

func (k *Kernel) sysRead(t *Thread, a [6]uint64) (ret uint64, blocked bool) {
	n, buf, count := int(a[0]), a[1], a[2]
	p := t.Proc
	if n == 0 {
		return 0, false // empty stdin
	}
	f, ok := p.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	switch f.kind {
	case fdFile:
		if f.flags&0x3 == OWronly {
			// Linux fails reads on write-only descriptors with EBADF
			// (access-mode check), not EINVAL.
			return errno(EBADF), false
		}
		if f.off >= len(f.data) {
			return 0, false
		}
		chunk := f.data[f.off:]
		if uint64(len(chunk)) > count {
			chunk = chunk[:count]
		}
		chunk = k.chaosShortRead(t, chunk)
		if !k.copyOut(t, buf, chunk) {
			return errno(EFAULT), false
		}
		f.off += len(chunk)
		return uint64(len(chunk)), false
	case fdConn:
		return k.connRead(t, n, f, buf, count)
	case fdSocket, fdListener:
		// A stream socket with no peer: Linux returns ENOTCONN, not a
		// generic bad-descriptor error.
		return errno(ENOTCONN), false
	default:
		return errno(EINVAL), false
	}
}

func (k *Kernel) sysWrite(t *Thread, a [6]uint64) (uint64, bool) {
	n, buf, count := int(a[0]), a[1], a[2]
	p := t.Proc
	// Linux resolves and validates the descriptor (fget + access-mode
	// check) before touching the user buffer, so a bad fd wins over a
	// bad buf — keep that ordering so EBADF/EFAULT precedence conforms.
	var f *fd
	if n != 1 && n != 2 {
		var ok bool
		f, ok = p.fds[n]
		if !ok {
			return errno(EBADF), false
		}
		switch f.kind {
		case fdFile:
			if f.flags&0x3 == ORdonly {
				return errno(EBADF), false
			}
		case fdConn:
		case fdSocket, fdListener:
			return errno(ENOTCONN), false
		default:
			return errno(EINVAL), false
		}
	}
	data, err := p.AS.KLoad(buf, int(count))
	if err != nil {
		return errno(EFAULT), false
	}
	// Chaos: a short write consumes a prefix; the caller's retry loop
	// (libc write) must issue the remainder.
	data = k.chaosShortWrite(t, data)
	switch {
	case n == 1:
		p.Stdout = append(p.Stdout, data...)
		return uint64(len(data)), false
	case n == 2:
		p.Stderr = append(p.Stderr, data...)
		return uint64(len(data)), false
	case f.kind == fdConn:
		return k.connWrite(t, f, data), false
	default:
		// Writes append to the backing file (the workloads are
		// log/WAL-style writers).
		if err := k.FS.Append(f.path, data); err != nil {
			return errno(EPERM), false
		}
		return uint64(len(data)), false
	}
}

func (k *Kernel) sysStat(t *Thread, a [6]uint64) (uint64, bool) {
	pathAddr, bufAddr := a[0], a[1]
	p := t.Proc
	path, err := p.AS.KLoadString(pathAddr, 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	if !k.FS.Exists(path) {
		return errno(ENOENT), false
	}
	data, _ := k.FS.ReadFile(path)
	return k.fillStat(t, bufAddr, uint64(len(data))), false
}

func (k *Kernel) sysFstat(t *Thread, a [6]uint64) (uint64, bool) {
	n, bufAddr := int(a[0]), a[1]
	p := t.Proc
	f, ok := p.fds[n]
	if !ok {
		return errno(EBADF), false
	}
	return k.fillStat(t, bufAddr, uint64(len(f.data))), false
}

// fillStat writes a 144-byte stat buffer with st_size at offset 48, as on
// Linux x86-64.
func (k *Kernel) fillStat(t *Thread, bufAddr, size uint64) uint64 {
	var buf [144]byte
	binary.LittleEndian.PutUint64(buf[48:], size)
	if !k.copyOut(t, bufAddr, buf[:]) {
		return errno(EFAULT)
	}
	return 0
}

// mmapBase is where anonymous mappings begin; subsequent maps grow
// upward.
const mmapBase = 0x7f00_0000_0000

func (k *Kernel) sysMmap(t *Thread, a [6]uint64) (uint64, bool) {
	addr, length, prot, flags := a[0], a[1], a[2], a[3]
	p := t.Proc
	if length == 0 {
		return errno(EINVAL), false
	}
	if addr == 0 && flags&MapFixed != 0 {
		// Mapping page zero: the trampoline trick. Linux permits it
		// (mmap_min_addr is modelled as 0 to match the papers' setup).
		addr = 0
	} else if addr == 0 {
		addr = k.findFree(p, length)
	}
	if addr%mem.PageSize != 0 {
		return errno(EINVAL), false
	}
	if err := p.AS.Map(addr, length, protToPerm(prot), "[anon]"); err != nil {
		return errno(ENOMEM), false
	}
	return addr, false
}

// findFree picks an unused address range of the given length.
func (k *Kernel) findFree(p *Process, length uint64) uint64 {
	addr := uint64(mmapBase)
	pages := mem.PageCount(0, length)
	for {
		if !p.AS.Mapped(addr, pages*mem.PageSize) {
			free := true
			for i := uint64(0); i < pages; i++ {
				if p.AS.Mapped(addr+i*mem.PageSize, 1) {
					free = false
					break
				}
			}
			if free {
				return addr
			}
		}
		addr += pages * mem.PageSize
	}
}

func (k *Kernel) sysMprotect(t *Thread, a [6]uint64) (uint64, bool) {
	if err := t.Proc.AS.Protect(a[0], a[1], protToPerm(a[2])); err != nil {
		return errno(EINVAL), false
	}
	return 0, false
}

func (k *Kernel) sysSigaction(t *Thread, a [6]uint64) (uint64, bool) {
	sig, handler, flags := int(a[0]), a[1], a[2]
	if sig <= 0 || sig > 64 {
		return errno(EINVAL), false
	}
	if handler == 0 {
		delete(t.Proc.sigHandlers, sig)
	} else {
		t.Proc.sigHandlers[sig] = sigAction{handler: handler, flags: flags}
	}
	return 0, false
}

func (k *Kernel) sysGettimeofday(t *Thread, a [6]uint64) (uint64, bool) {
	return k.storeTime(t, a[0]), false
}

func (k *Kernel) sysClockGettime(t *Thread, a [6]uint64) (uint64, bool) {
	return k.storeTime(t, a[1]), false
}

// sysTime returns the virtual clock's seconds, or stores it like
// gettimeofday when given a buffer.
func (k *Kernel) sysTime(t *Thread, a [6]uint64) (uint64, bool) {
	if a[0] == 0 {
		return k.VClock / CyclesPerSecond, false
	}
	return k.storeTime(t, a[0]), false
}

// storeTime writes the virtual clock as (sec, nsec) to bufAddr, if any.
func (k *Kernel) storeTime(t *Thread, bufAddr uint64) uint64 {
	if bufAddr == 0 {
		return 0
	}
	// One virtual second is 3.2e9 cycles (the modelled 3.2 GHz clock).
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], k.VClock/CyclesPerSecond)
	binary.LittleEndian.PutUint64(buf[8:], (k.VClock%CyclesPerSecond)*1_000_000_000/CyclesPerSecond)
	if !k.copyOut(t, bufAddr, buf[:]) {
		return errno(EFAULT)
	}
	return 0
}

// CyclesPerSecond is the virtual clock rate: 3.2 GHz, matching the
// paper's Xeon w5-3425.
const CyclesPerSecond = 3_200_000_000

func (k *Kernel) sysPrctl(t *Thread, a [6]uint64) (uint64, bool) {
	if a[0] != PrSetSyscallUserDispatch {
		return errno(EINVAL), false
	}
	switch a[1] {
	case PrSysDispatchOn:
		// prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, offset, len, selector)
		if a[4] == 0 {
			return errno(EINVAL), false
		}
		t.sud = sudState{on: true, selectorAddr: a[4], allowStart: a[2], allowLen: a[3]}
		t.Proc.sudEverArmed = true
		return 0, false
	case PrSysDispatchOff:
		// This succeeding unconditionally is pitfall P1b: any code in
		// the process can silently disable SUD-based interposition.
		// K23 blocks it at the interposer layer, not here.
		t.sud = sudState{}
		return 0, false
	default:
		return errno(EINVAL), false
	}
}

func (k *Kernel) sysGetrandom(t *Thread, a [6]uint64) (uint64, bool) {
	buf, count := a[0], a[1]
	b := make([]byte, count)
	seed := k.VClock
	for i := range b {
		seed = seed*6364136223846793005 + 1442695040888963407
		b[i] = byte(seed >> 33)
	}
	if !k.copyOut(t, buf, b) {
		return errno(EFAULT), false
	}
	return count, false
}

func (k *Kernel) sysClone(t *Thread, a [6]uint64) (uint64, bool) {
	stack := a[1]
	p := t.Proc
	ctx := t.Core.Ctx // copy
	ctx.R[cpu.RAX] = 0
	if stack != 0 {
		ctx.R[cpu.RSP] = stack
	}
	nt := k.NewThread(p, ctx)
	// SUD configuration and the PKRU are inherited on thread creation,
	// as on Linux (PKRU is architectural per-thread state).
	nt.sud = t.sud
	nt.Core.PKRU = t.Core.PKRU
	return uint64(nt.TID), false
}

func (k *Kernel) sysFork(t *Thread, _ [6]uint64) (uint64, bool) {
	parent := t.Proc
	child := &Process{
		PID:          k.nextPID,
		Path:         parent.Path,
		Argv:         append([]string(nil), parent.Argv...),
		Env:          append([]string(nil), parent.Env...),
		AS:           parent.AS.Clone(),
		fds:          make(map[int]*fd),
		nextFD:       parent.nextFD,
		sigHandlers:  make(map[int]sigAction),
		Hostcalls:    parent.Hostcalls, // code identical post-fork
		sudEverArmed: parent.sudEverArmed,
		VDSODisabled: parent.VDSODisabled,
		Parent:       parent,
		LoaderState:  parent.LoaderState,
		Interposer:   parent.Interposer,
		nextTID:      1,
	}
	k.nextPID++
	for sig, h := range parent.sigHandlers {
		child.sigHandlers[sig] = h
	}
	for n, f := range parent.fds {
		cf := *f
		child.fds[n] = &cf
	}
	k.addProcess(child)

	// The forking thread is duplicated; SUD state is inherited
	// (per-thread, preserved across fork on Linux). The tracer is NOT
	// inherited (no PTRACE_O_TRACEFORK modelled).
	ctx := t.Core.Ctx
	ctx.R[cpu.RAX] = 0
	ct := k.NewThread(child, ctx)
	ct.sud = t.sud

	if k.Tracing() {
		k.emit(Event{PID: parent.PID, TID: t.TID, Kind: EvFork, Ret: uint64(child.PID)})
	}
	return uint64(child.PID), false
}

// loadStringVec reads a NULL-terminated array of string pointers.
func (k *Kernel) loadStringVec(p *Process, addr uint64) ([]string, error) {
	if addr == 0 {
		return nil, nil
	}
	var out []string
	for i := 0; i < 1024; i++ {
		ptr, err := p.AS.KLoadU64(addr + uint64(8*i))
		if err != nil {
			return nil, err
		}
		if ptr == 0 {
			return out, nil
		}
		s, err := p.AS.KLoadString(ptr, 4096)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, fmt.Errorf("kernel: unterminated string vector at %#x", addr)
}

func (k *Kernel) sysExecve(t *Thread, a [6]uint64) (uint64, bool) {
	pathAddr, argvAddr, envAddr := a[0], a[1], a[2]
	p := t.Proc
	path, err := p.AS.KLoadString(pathAddr, 4096)
	if err != nil {
		return errno(EFAULT), false
	}
	argv, err := k.loadStringVec(p, argvAddr)
	if err != nil {
		return errno(EFAULT), false
	}
	env, err := k.loadStringVec(p, envAddr)
	if err != nil {
		return errno(EFAULT), false
	}
	if k.Exec == nil {
		k.emitUnknownSyscall(t, SysExecve, t.entrySite, "execve: no exec handler installed")
		return errno(ENOSYS), false
	}
	if k.Tracing() {
		k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvExec, Detail: path})
	}
	if p.tracer != nil {
		// PTRACE_EVENT_EXEC analogue: the tracer inspects — and may
		// rewrite — the new environment. This is where K23's ptracer
		// re-injects LD_PRELOAD (defeating pitfall P1a).
		t.charge(k.Cost.PtraceStop)
		if newEnv := p.tracer.Execve(k, t, path, argv, env); newEnv != nil {
			env = newEnv
		}
	}
	if err := k.Exec(k, t, path, argv, env); err != nil {
		return errno(ENOENT), false
	}
	// The old image — including any in-flight interposer infrastructure
	// frame that issued this execve — is gone; execution in the new
	// image is organic. Stale CallGuestInfra defers floor at zero.
	t.infraFrames = 0
	return 0, true
}

func (k *Kernel) sysWait4(t *Thread, a [6]uint64) (ret uint64, blocked bool) {
	pid, statusAddr := int(int64(a[0])), a[1]
	p := t.Proc
	// findZombieChild scans in PID creation order (k.order), not map
	// order: with several zombie children, which one wait4(-1) reaps must
	// not depend on Go's randomized map iteration, or identical runs
	// diverge.
	c := k.findZombieChild(p, pid)
	if c == nil {
		if k.chaosBlockEINTR(t, SysWait4) {
			return errno(EINTR), false
		}
		// Block until a matching child exits; whether the call restarts
		// or aborts with EINTR on a signal depends on the handler's
		// SA_RESTART flag (interruptBlockedSyscall).
		k.blockThread(t, wakeDesc{kind: wakeWait4PID, arg: pid})
		return 0, true
	}
	c.State = ProcReaped
	if statusAddr != 0 {
		status := uint64(c.Exit.Code) << 8
		if c.Exit.Signal != 0 {
			status = uint64(c.Exit.Signal)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], status)
		if !k.copyOut(t, statusAddr, buf[:]) {
			return errno(EFAULT), false
		}
	}
	return uint64(c.PID), false
}
