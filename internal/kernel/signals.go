package kernel

import (
	"fmt"

	"k23/internal/cpu"
)

// Signal frame layout constants. The kernel pushes a frame containing a
// siginfo block and a ucontext block; the handler receives RDI=signo,
// RSI=&siginfo, RDX=&ucontext. Handlers return with rt_sigreturn, which
// restores the (possibly modified) ucontext — the mechanism zpoline-style
// interposers use to emulate system calls "from outside the handler"
// (paper §2.1).
const (
	// siginfo offsets
	SigInfoSigno     = 0  // u64 signal number
	SigInfoSyscall   = 8  // u64 intercepted syscall number (SIGSYS)
	SigInfoCallAddr  = 16 // u64 address following the syscall insn (SIGSYS)
	SigInfoFaultAddr = 24 // u64 faulting address (SIGSEGV)
	SigInfoCode      = 32 // u64 si_code (SYS_USER_DISPATCH vs SYS_SECCOMP)
	SigInfoSize      = 40

	// ucontext offsets
	UctxRegs  = 0   // 16 x u64 general-purpose registers
	UctxRIP   = 128 // u64 resume RIP
	UctxFlags = 136 // u64 flags
	UctxSize  = 144

	// sigFrameSize is siginfo + ucontext, 16-byte aligned.
	sigFrameSize = SigInfoSize + UctxSize
)

// si_code values distinguishing SIGSYS sources (analogues of Linux's
// SYS_USER_DISPATCH and SYS_SECCOMP).
const (
	SiCodeUserDispatch = 2
	SiCodeSeccomp      = 1
)

// SARestart is the sa_flags bit requesting automatic restart of
// interrupted syscalls (Linux SA_RESTART).
const SARestart = 0x10000000

// sigAction is one installed signal disposition: handler entry point plus
// the sa_flags word rt_sigaction registered with it.
type sigAction struct {
	handler uint64
	flags   uint64
}

// sigInfo is the host-side form of the siginfo block.
type sigInfo struct {
	signo     int
	syscall   uint64
	callAddr  uint64
	faultAddr uint64
	code      uint64
}

// deliverFaultSignal handles CPU faults (SIGSEGV/SIGILL/SIGTRAP).
func (k *Kernel) deliverFaultSignal(t *Thread, sig int, stop cpu.Stop) {
	info := sigInfo{signo: sig}
	detail := fmt.Sprintf("at rip=%#x", t.Core.Ctx.RIP)
	if stop.Fault != nil {
		info.faultAddr = stop.Fault.Addr
		detail = stop.Fault.Error()
	}
	if _, ok := t.Proc.sigHandlers[sig]; !ok {
		k.killProcess(t.Proc, sig, detail)
		return
	}
	k.deliverSignal(t, sig, info)
}

// deliverSignal builds a signal frame on the thread's stack and transfers
// control to the registered handler. The process is killed if no handler
// is installed (default disposition for the signals we model).
func (k *Kernel) deliverSignal(t *Thread, sig int, info sigInfo) {
	p := t.Proc
	act, ok := p.sigHandlers[sig]
	if !ok {
		k.killProcess(p, sig, fmt.Sprintf("unhandled signal %d", sig))
		return
	}
	handler := act.handler
	k.EmitPhase(t, PhSignal, uint64(sig), handler, "")
	t.charge(k.Cost.SignalDeliver)
	t.Core.FlushICache() // signal delivery is a kernel entry: serializing

	ctx := &t.Core.Ctx
	savedRSP := ctx.R[cpu.RSP]

	// Reserve the frame below the red zone, 16-byte aligned.
	frameTop := (ctx.R[cpu.RSP] - 128 - sigFrameSize) &^ 15
	siginfoAddr := frameTop
	uctxAddr := frameTop + SigInfoSize

	buf := make([]byte, sigFrameSize)
	putU64 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	putU64(SigInfoSigno, uint64(info.signo))
	putU64(SigInfoSyscall, info.syscall)
	putU64(SigInfoCallAddr, info.callAddr)
	putU64(SigInfoFaultAddr, info.faultAddr)
	putU64(SigInfoCode, info.code)
	for r := 0; r < cpu.NumRegs; r++ {
		putU64(SigInfoSize+UctxRegs+8*r, ctx.R[r])
	}
	putU64(SigInfoSize+UctxRIP, ctx.RIP)
	putU64(SigInfoSize+UctxFlags, ctx.Flags())

	if err := p.AS.KStore(frameTop, buf); err != nil {
		k.killProcess(p, SIGSEGV, fmt.Sprintf("signal frame store failed: %v", err))
		return
	}

	t.sigFrames = append(t.sigFrames, sigFrame{ucontextAddr: uctxAddr, savedRSP: savedRSP})

	ctx.R[cpu.RDI] = uint64(sig)
	ctx.R[cpu.RSI] = siginfoAddr
	ctx.R[cpu.RDX] = uctxAddr
	ctx.R[cpu.RSP] = frameTop - 8 // slot where a return address would live
	ctx.RIP = handler
	if k.Tracing() {
		k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvSignal, Num: uint64(sig), Site: ctx.RIP})
	}
}

// sysSigreturn restores the thread context from the most recent signal
// frame. The ucontext is re-read from guest memory, so handler-side
// modifications (emulated return values, redirected RIP) take effect.
func (k *Kernel) sysSigreturn(t *Thread, _ [6]uint64) (uint64, bool) {
	if len(t.sigFrames) == 0 {
		k.killProcess(t.Proc, SIGSEGV, "rt_sigreturn with no signal frame")
		return 0, true
	}
	fr := t.sigFrames[len(t.sigFrames)-1]
	t.sigFrames = t.sigFrames[:len(t.sigFrames)-1]
	k.EmitPhase(t, PhSigret, 0, t.Core.Ctx.RIP, "")

	var buf [UctxSize]byte
	if err := t.Proc.AS.KRead(fr.ucontextAddr, buf[:]); err != nil {
		k.killProcess(t.Proc, SIGSEGV, fmt.Sprintf("rt_sigreturn: frame unreadable: %v", err))
		return 0, true
	}
	getU64 := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(buf[off+i]) << (8 * i)
		}
		return v
	}
	ctx := &t.Core.Ctx
	for r := 0; r < cpu.NumRegs; r++ {
		ctx.R[r] = getU64(UctxRegs + 8*r)
	}
	ctx.RIP = getU64(UctxRIP)
	ctx.SetFlags(getU64(UctxFlags))
	t.Core.FlushICache()
	return 0, true
}

// wakeKind names what a blocked thread waits for.
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

// wakeDesc is a blocked thread's wake condition as data: what it waits
// for, with the kernel object named by a stable identifier (fd number
// or PID) rather than a pointer, so it is checkpointed, restored and
// hashed like any other thread field.
type wakeDesc struct {
	kind wakeKind
	arg  int
}

// blockThread parks t until its wake condition, desc, holds (see
// wakeReady) and arranges for the in-flight system call to restart:
// RIP is rewound over the entry instruction that trapped (RAX still
// holds the number at block time).
// The rewind distance is the recorded entry length, not a hard-coded
// SYSCALL width: SYSENTER and rewritten call sites re-enter through
// their own encodings. Host-initiated blocks (DirectSyscall) have
// entryLen == 0 and leave RIP alone — there is no instruction to rerun.
func (k *Kernel) blockThread(t *Thread, desc wakeDesc) {
	t.State = ThreadBlocked
	t.wakeDesc = desc
	t.blockedLen = t.entryLen
	t.Core.Ctx.RIP -= t.entryLen
	k.EmitPhase(t, PhBlock, t.Core.Ctx.R[cpu.RAX], t.entrySite, desc.describe())
}

// wakeReady evaluates blocked thread t's wake condition against the
// current kernel objects. A descriptor that no longer resolves — the fd
// was closed, say by another thread of the process — counts as ready:
// the restarted call then fails (EBADF) instead of the thread waiting
// on an object nothing can reach.
func (k *Kernel) wakeReady(t *Thread) bool {
	d := t.wakeDesc
	switch d.kind {
	case wakeAcceptFD:
		if f, ok := t.Proc.fds[d.arg]; ok && f.kind == fdListener {
			return f.listener.pending()
		}
	case wakeConnReadFD:
		if f, ok := t.Proc.fds[d.arg]; ok && f.conn != nil {
			return f.conn.readable()
		}
	case wakeWait4PID:
		return k.findZombieChild(t.Proc, d.arg) != nil
	}
	return true
}

// findZombieChild returns p's first zombie child matching pid (<= 0 for
// any), scanning in PID creation order so identical runs reap
// identically. sysWait4 and the wait4 wake condition share it.
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

// interruptBlockedSyscall applies the Linux signal-at-blocked-syscall
// rules to t before a handler is pushed: with SA_RESTART the rewound RIP
// is kept, so sigreturn re-executes the entry instruction and the call
// restarts; without it the call is aborted — RIP moves past the entry
// instruction and RAX carries -EINTR, which the handler frame captures
// and sigreturn hands back to the application. Either way the thread
// leaves the blocked state and its wake condition is cleared (never
// leaked into the next block).
func (k *Kernel) interruptBlockedSyscall(t *Thread, flags uint64) {
	t.State = ThreadRunnable
	t.wakeDesc = wakeDesc{}
	if k.PhaseHook != nil && t.blockedLen != 0 {
		ph := PhRestart
		if flags&SARestart == 0 {
			ph = PhEINTR
		}
		// RIP is still rewound to the entry site; RAX still holds the
		// number the call blocked with.
		k.EmitPhase(t, ph, t.Core.Ctx.R[cpu.RAX], t.Core.Ctx.RIP, "")
	}
	if flags&SARestart == 0 && t.blockedLen != 0 {
		if k.Sfip != nil && t.infraFrames == 0 {
			// The aborted call completed (with -EINTR) from the policy's
			// point of view: advance the thread's predecessor state just
			// as executeSyscall would have on normal completion.
			k.Sfip.Commit(t.Proc.PID, t.TID, t.Core.Ctx.R[cpu.RAX])
		}
		if k.EventHook != nil {
			// The aborted call logically completed with -EINTR: emit its
			// ground-truth oracle here, since the blocked executeSyscall
			// deliberately did not. RIP is still rewound to the entry
			// site and RAX still holds the number at block time.
			origin := "trap"
			if t.infraFrames > 0 {
				origin = "hostcall"
			}
			k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvOracle,
				Num: t.Core.Ctx.R[cpu.RAX], Site: t.Core.Ctx.RIP,
				Ret: errno(EINTR), Detail: origin})
		}
		t.Core.Ctx.RIP += t.blockedLen
		t.Core.Ctx.R[cpu.RAX] = errno(EINTR)
	}
	t.blockedLen = 0
}

// signalProcess delivers sig to target on behalf of caller (nil for
// host-originated signals): the kill(2) service routine. Returns the
// kill return value plus noReturn=true when the caller's own context was
// replaced (self-directed signal: the handler frame must see RAX=0, the
// success return of kill, not the raw syscall number).
func (k *Kernel) signalProcess(caller *Thread, target *Process, sig int) (uint64, bool) {
	if sig == 0 {
		return 0, false // existence probe
	}
	if target.State != ProcRunning {
		return 0, false
	}
	act, handled := target.sigHandlers[sig]
	if sig == SIGKILL || !handled {
		k.killProcess(target, sig, "killed")
		if caller != nil && caller.Proc == target {
			return 0, true
		}
		return 0, false
	}
	dt := target.MainThread()
	if dt == nil {
		return errno(ENOENT), false
	}
	if dt.State == ThreadBlocked {
		k.interruptBlockedSyscall(dt, act.flags)
	}
	if caller == dt {
		// Self-directed: the handler frame snapshots the context mid-kill,
		// so plant kill's own return value before building it.
		dt.Core.Ctx.R[cpu.RAX] = 0
		k.deliverSignal(dt, sig, sigInfo{signo: sig})
		return 0, true
	}
	k.deliverSignal(dt, sig, sigInfo{signo: sig})
	return 0, false
}

// WakePending reports whether t still holds a wake condition. Tests use
// it to assert that interrupting a blocked syscall (restart or EINTR
// abort alike) clears the condition rather than leaking it into the
// thread's next block.
func (t *Thread) WakePending() bool { return t.wakeDesc.kind != wakeNone }

// PostSignal sends sig to p from host context (no calling thread) —
// the chaos injector's and tests' signal source. Delivery follows the
// same rules as kill(2): SA_RESTART decides whether a blocked syscall
// restarts or aborts with EINTR.
func (k *Kernel) PostSignal(p *Process, sig int) {
	k.signalProcess(nil, p, sig)
}
