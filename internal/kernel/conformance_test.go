package kernel_test

import (
	"testing"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// The conformance suite pins down the errno surface of the simulated
// kernel — the edge cases the pitfall PoCs and interposer variants rely
// on (bad descriptors, bad user pointers, unknown syscall numbers,
// signal/wait interplay). Each family is one table-driven subtest so a
// behavior change in syscalls.go fails with the exact syscall and case
// named.
//
// Deliberate divergences from Linux, asserted as such below:
//   - kill() on a missing pid returns ENOENT (Linux: ESRCH).
//   - wait4() with no children blocks (Linux: ECHILD); the blocked call
//     restarts when the wake condition fires. A signal arriving while it
//     is blocked follows the handler's SA_RESTART flag, as on Linux:
//     restart the call, or abort it with EINTR in RAX
//     (TestConformanceEINTRRestart).

// unmappedAddr is a guest address no test world ever maps.
const unmappedAddr = 0xdead0000

// confWorld spawns a minimal guest and returns its kernel, process and
// main thread, plus a writable scratch page obtained via mmap — so
// pointer-taking syscalls have a valid target.
func confWorld(t *testing.T) (*kernel.Kernel, *kernel.Process, *kernel.Thread, uint64) {
	t.Helper()
	k, l, reg := newWorld(t)
	b := asm.NewBuilder("/bin/conf")
	b.Needed(libc.Path)
	tx := b.Text()
	tx.Label("_start")
	tx.MovImm32(cpu.RDI, 0)
	tx.CallSym("exit_group")
	reg.MustAdd(b.MustBuild())
	p, err := l.Spawn("/bin/conf", []string{"conf"}, nil)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	mt := p.MainThread()
	scratch := k.DirectSyscall(mt, kernel.SysMmap,
		[6]uint64{0, 4096, kernel.ProtRead | kernel.ProtWrite, 0})
	if e, bad := kernel.IsErr(scratch); bad {
		t.Fatalf("mmap scratch page: errno %d", e)
	}
	return k, p, mt, scratch
}

// putString writes a NUL-terminated string into guest memory.
func putString(t *testing.T, p *kernel.Process, addr uint64, s string) {
	t.Helper()
	if err := p.AS.KStore(addr, append([]byte(s), 0)); err != nil {
		t.Fatalf("KStore(%#x, %q): %v", addr, s, err)
	}
}

// wantErrno asserts ret encodes the given errno.
func wantErrno(t *testing.T, what string, ret uint64, want int) {
	t.Helper()
	e, bad := kernel.IsErr(ret)
	if !bad {
		t.Errorf("%s = %d, want errno %d", what, int64(ret), want)
		return
	}
	if e != want {
		t.Errorf("%s = errno %d, want errno %d", what, e, want)
	}
}

// wantOK asserts ret is not an errno.
func wantOK(t *testing.T, what string, ret uint64) {
	t.Helper()
	if e, bad := kernel.IsErr(ret); bad {
		t.Errorf("%s = errno %d, want success", what, e)
	}
}

// errnoCase is one table row: a syscall invocation expected to fail (or
// succeed, when errno == 0).
type errnoCase struct {
	name  string
	nr    uint64
	args  [6]uint64
	errno int
}

func runErrnoCases(t *testing.T, k *kernel.Kernel, mt *kernel.Thread, cases []errnoCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ret := k.DirectSyscall(mt, c.nr, c.args)
			if c.errno == 0 {
				wantOK(t, c.name, ret)
			} else {
				wantErrno(t, c.name, ret, c.errno)
			}
		})
	}
}

func TestConformanceFileDescriptors(t *testing.T) {
	k, p, mt, scratch := confWorld(t)
	pathAddr := scratch
	putString(t, p, pathAddr, "/tmp/conf-file")

	// Create a real file so the happy paths below have a valid fd.
	fd := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.OCreat | kernel.ORdwr})
	wantOK(t, "open(O_CREAT)", fd)
	if fd < 3 {
		t.Fatalf("open returned fd %d, want >= 3", fd)
	}

	runErrnoCases(t, k, mt, []errnoCase{
		{"read-bad-fd", kernel.SysRead, [6]uint64{99, scratch, 16}, kernel.EBADF},
		{"read-bad-buf", kernel.SysRead, [6]uint64{fd, unmappedAddr, 16}, 0}, // empty file: 0 bytes before the copy
		{"write-bad-buf", kernel.SysWrite, [6]uint64{fd, unmappedAddr, 16}, kernel.EFAULT},
		{"write-bad-fd", kernel.SysWrite, [6]uint64{99, scratch, 4}, kernel.EBADF},
		{"fstat-bad-fd", kernel.SysFstat, [6]uint64{99, scratch}, kernel.EBADF},
		{"fstat-bad-buf", kernel.SysFstat, [6]uint64{fd, unmappedAddr}, kernel.EFAULT},
		{"fstat-ok", kernel.SysFstat, [6]uint64{fd, scratch + 256}, 0},
		{"close-bad-fd", kernel.SysClose, [6]uint64{99}, kernel.EBADF},
		{"close-ok", kernel.SysClose, [6]uint64{fd}, 0},
		{"close-twice", kernel.SysClose, [6]uint64{fd}, kernel.EBADF},
		{"read-after-close", kernel.SysRead, [6]uint64{fd, scratch, 16}, kernel.EBADF},
	})

	// A file fd that has data: EFAULT on the copy-out path.
	wantOK(t, "write data", func() uint64 {
		wfd := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.ORdwr})
		putString(t, p, scratch+512, "payload")
		ret := k.DirectSyscall(mt, kernel.SysWrite, [6]uint64{wfd, scratch + 512, 7})
		k.DirectSyscall(mt, kernel.SysClose, [6]uint64{wfd})
		return ret
	}())
	rfd := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.ORdonly})
	wantOK(t, "reopen", rfd)
	wantErrno(t, "read-into-bad-buf", k.DirectSyscall(mt, kernel.SysRead, [6]uint64{rfd, unmappedAddr, 7}), kernel.EFAULT)
}

func TestConformancePaths(t *testing.T) {
	k, p, mt, scratch := confWorld(t)
	missing := scratch
	putString(t, p, missing, "/no/such/file")
	present := scratch + 128
	putString(t, p, present, "/tmp/conf-present")
	wantOK(t, "open(O_CREAT)", k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{present, kernel.OCreat}))

	runErrnoCases(t, k, mt, []errnoCase{
		{"open-missing", kernel.SysOpen, [6]uint64{missing, kernel.ORdonly}, kernel.ENOENT},
		{"open-bad-path-ptr", kernel.SysOpen, [6]uint64{unmappedAddr, kernel.ORdonly}, kernel.EFAULT},
		{"stat-missing", kernel.SysStat, [6]uint64{missing, scratch + 512}, kernel.ENOENT},
		{"stat-bad-path-ptr", kernel.SysStat, [6]uint64{unmappedAddr, scratch + 512}, kernel.EFAULT},
		{"stat-ok", kernel.SysStat, [6]uint64{present, scratch + 512}, 0},
		{"access-missing", kernel.SysAccess, [6]uint64{missing}, kernel.ENOENT},
		{"access-bad-path-ptr", kernel.SysAccess, [6]uint64{unmappedAddr}, kernel.EFAULT},
		{"access-ok", kernel.SysAccess, [6]uint64{present}, 0},
		{"unlink-missing", kernel.SysUnlink, [6]uint64{missing}, kernel.ENOENT},
		{"unlink-bad-path-ptr", kernel.SysUnlink, [6]uint64{unmappedAddr}, kernel.EFAULT},
		{"unlink-ok", kernel.SysUnlink, [6]uint64{present}, 0},
		{"access-after-unlink", kernel.SysAccess, [6]uint64{present}, kernel.ENOENT},
	})
}

func TestConformanceMemory(t *testing.T) {
	k, _, mt, scratch := confWorld(t)
	runErrnoCases(t, k, mt, []errnoCase{
		{"mmap-zero-length", kernel.SysMmap, [6]uint64{0, 0, kernel.ProtRead}, kernel.EINVAL},
		{"mmap-unaligned-hint", kernel.SysMmap, [6]uint64{scratch + 1, 4096, kernel.ProtRead}, kernel.EINVAL},
		{"munmap-unmapped", kernel.SysMunmap, [6]uint64{unmappedAddr, 4096}, 0}, // no-op, as on Linux
		{"munmap-unaligned", kernel.SysMunmap, [6]uint64{unmappedAddr + 1, 4096}, kernel.EINVAL},
		{"mprotect-unmapped", kernel.SysMprotect, [6]uint64{unmappedAddr, 4096, kernel.ProtRead}, kernel.EINVAL},
		{"mprotect-ok", kernel.SysMprotect, [6]uint64{scratch, 4096, kernel.ProtRead}, 0},
		{"pkey-free-bad-key", kernel.SysPkeyFree, [6]uint64{1 << 20}, kernel.EINVAL},
	})

	// Anonymous mmap lands in the mmap region, page-aligned.
	addr := k.DirectSyscall(mt, kernel.SysMmap, [6]uint64{0, 8192, kernel.ProtRead | kernel.ProtWrite})
	wantOK(t, "mmap-anon", addr)
	if addr%4096 != 0 {
		t.Errorf("mmap returned unaligned address %#x", addr)
	}
	wantOK(t, "munmap-anon", k.DirectSyscall(mt, kernel.SysMunmap, [6]uint64{addr, 8192}))
}

func TestConformanceUnknownSyscalls(t *testing.T) {
	k, _, mt, _ := confWorld(t)
	runErrnoCases(t, k, mt, []errnoCase{
		{"nr-500", 500, [6]uint64{}, kernel.ENOSYS}, // the microbenchmark's number
		{"nr-9999", 9999, [6]uint64{}, kernel.ENOSYS},
		{"nr-max", ^uint64(0), [6]uint64{}, kernel.ENOSYS},
		{"ptrace", kernel.SysPtrace, [6]uint64{}, kernel.ENOSYS},
		{"process-vm-readv", kernel.SysProcessVMReadv, [6]uint64{}, kernel.ENOSYS},
	})
}

func TestConformanceSignalsAndIdentity(t *testing.T) {
	k, p, mt, scratch := confWorld(t)
	if got := k.DirectSyscall(mt, kernel.SysGetpid, [6]uint64{}); int(got) != p.PID {
		t.Errorf("getpid = %d, want %d", got, p.PID)
	}
	if got := k.DirectSyscall(mt, kernel.SysGettid, [6]uint64{}); int(got) != mt.TID {
		t.Errorf("gettid = %d, want %d", got, mt.TID)
	}
	runErrnoCases(t, k, mt, []errnoCase{
		{"sigaction-sig-0", kernel.SysRtSigaction, [6]uint64{0, scratch}, kernel.EINVAL},
		{"sigaction-sig-65", kernel.SysRtSigaction, [6]uint64{65, scratch}, kernel.EINVAL},
		{"sigaction-ok", kernel.SysRtSigaction, [6]uint64{kernel.SIGSYS, scratch}, 0},
		// Divergence from Linux (ESRCH), asserted deliberately.
		{"kill-missing-pid", kernel.SysKill, [6]uint64{54321, kernel.SIGKILL}, kernel.ENOENT},
	})
}

func TestConformanceSockets(t *testing.T) {
	k, _, mt, _ := confWorld(t)

	sfd := k.DirectSyscall(mt, kernel.SysSocket, [6]uint64{})
	wantOK(t, "socket", sfd)
	wantOK(t, "bind", k.DirectSyscall(mt, kernel.SysBind, [6]uint64{sfd, 8080}))
	wantOK(t, "listen", k.DirectSyscall(mt, kernel.SysListen, [6]uint64{sfd, 8}))

	sfd2 := k.DirectSyscall(mt, kernel.SysSocket, [6]uint64{})
	wantOK(t, "socket-2", sfd2)

	runErrnoCases(t, k, mt, []errnoCase{
		{"bind-bad-fd", kernel.SysBind, [6]uint64{99, 8081}, kernel.EBADF},
		// The port is actively listened on: the address is in use.
		{"bind-in-use", kernel.SysBind, [6]uint64{sfd2, 8080}, kernel.EADDRINUSE},
		{"listen-bad-fd", kernel.SysListen, [6]uint64{99, 8}, kernel.EBADF},
		// A socket fd that was never bound has no address to listen on.
		{"listen-unbound", kernel.SysListen, [6]uint64{sfd2, 8}, kernel.EINVAL},
		{"accept-bad-fd", kernel.SysAccept, [6]uint64{99}, kernel.EBADF},
		// accept on a socket that is not listening.
		{"accept-non-listener", kernel.SysAccept, [6]uint64{sfd2}, kernel.EINVAL},
		// A second bind to a free port on the in-use loser must work: the
		// EADDRINUSE path must not have half-claimed the socket.
		{"bind-free-port", kernel.SysBind, [6]uint64{sfd2, 8081}, 0},
	})
}

// TestConformanceFdTableEdges pins the descriptor-table lookup edges the
// audit's EBADF accounting depends on: negative and far-out-of-range
// numbers are EBADF on every fd-taking call, the fd check wins over a
// bad user buffer (Linux's fget-before-copy ordering), and a closed
// descriptor number stays EBADF even after later opens — this kernel
// allocates descriptors monotonically (a deliberate divergence from
// Linux's lowest-free-slot rule), so a stale number can never silently
// alias a newer file.
func TestConformanceFdTableEdges(t *testing.T) {
	k, p, mt, scratch := confWorld(t)
	pathAddr := scratch
	putString(t, p, pathAddr, "/tmp/conf-edges")

	neg1 := ^uint64(0)      // fd -1
	neg2 := ^uint64(0) - 1  // fd -2
	huge := uint64(1 << 20) // far beyond any allocated descriptor

	runErrnoCases(t, k, mt, []errnoCase{
		{"read-fd-neg", kernel.SysRead, [6]uint64{neg1, scratch, 8}, kernel.EBADF},
		{"write-fd-neg", kernel.SysWrite, [6]uint64{neg2, scratch, 8}, kernel.EBADF},
		{"close-fd-neg", kernel.SysClose, [6]uint64{neg1}, kernel.EBADF},
		{"fstat-fd-neg", kernel.SysFstat, [6]uint64{neg1, scratch}, kernel.EBADF},
		{"read-fd-huge", kernel.SysRead, [6]uint64{huge, scratch, 8}, kernel.EBADF},
		{"write-fd-huge", kernel.SysWrite, [6]uint64{huge, scratch, 8}, kernel.EBADF},
		{"close-fd-huge", kernel.SysClose, [6]uint64{huge}, kernel.EBADF},
		// EBADF beats EFAULT: a bad fd with a bad buffer reports the fd.
		{"read-fd-neg-bad-buf", kernel.SysRead, [6]uint64{neg1, unmappedAddr, 8}, kernel.EBADF},
		{"write-fd-neg-bad-buf", kernel.SysWrite, [6]uint64{neg1, unmappedAddr, 8}, kernel.EBADF},
	})

	fd1 := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.OCreat | kernel.ORdwr})
	wantOK(t, "open", fd1)
	wantOK(t, "close", k.DirectSyscall(mt, kernel.SysClose, [6]uint64{fd1}))
	fd2 := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.ORdwr})
	wantOK(t, "reopen", fd2)
	if fd2 == fd1 {
		t.Fatalf("descriptor number %d reused; monotonic allocation must not recycle closed numbers", fd1)
	}
	wantErrno(t, "read-stale-fd", k.DirectSyscall(mt, kernel.SysRead, [6]uint64{fd1, scratch + 512, 8}), kernel.EBADF)
	wantOK(t, "read-new-fd", k.DirectSyscall(mt, kernel.SysRead, [6]uint64{fd2, scratch + 512, 8}))
}

// TestConformanceSocketStates pins the wrong-state errno matrix for
// socket-family descriptors: reads and writes on a socket with no peer
// are ENOTCONN (not a generic EBADF), epoll descriptors are EINVAL for
// data calls, socket calls on non-socket descriptors are ENOTSOCK, and
// the access-mode checks on regular files are EBADF as on Linux.
func TestConformanceSocketStates(t *testing.T) {
	k, p, mt, scratch := confWorld(t)
	pathAddr := scratch
	putString(t, p, pathAddr, "/tmp/conf-sockstate")

	file := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.OCreat | kernel.ORdwr})
	wantOK(t, "open(O_RDWR)", file)
	ro := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.ORdonly})
	wantOK(t, "open(O_RDONLY)", ro)
	wo := k.DirectSyscall(mt, kernel.SysOpen, [6]uint64{pathAddr, kernel.OWronly})
	wantOK(t, "open(O_WRONLY)", wo)

	sock := k.DirectSyscall(mt, kernel.SysSocket, [6]uint64{})
	wantOK(t, "socket", sock)
	lst := k.DirectSyscall(mt, kernel.SysSocket, [6]uint64{})
	wantOK(t, "socket-listener", lst)
	wantOK(t, "bind", k.DirectSyscall(mt, kernel.SysBind, [6]uint64{lst, 8090}))
	wantOK(t, "listen", k.DirectSyscall(mt, kernel.SysListen, [6]uint64{lst, 8}))
	ep := k.DirectSyscall(mt, kernel.SysEpollCreate1, [6]uint64{})
	wantOK(t, "epoll_create1", ep)

	runErrnoCases(t, k, mt, []errnoCase{
		// A stream socket with no peer: ENOTCONN, whether unconnected or
		// listening (data flows through accepted conn fds, never these).
		{"read-unconnected-socket", kernel.SysRead, [6]uint64{sock, scratch + 512, 8}, kernel.ENOTCONN},
		{"write-unconnected-socket", kernel.SysWrite, [6]uint64{sock, scratch + 512, 8}, kernel.ENOTCONN},
		{"read-listener", kernel.SysRead, [6]uint64{lst, scratch + 512, 8}, kernel.ENOTCONN},
		{"write-listener", kernel.SysWrite, [6]uint64{lst, scratch + 512, 8}, kernel.ENOTCONN},
		// Epoll descriptors carry no data stream.
		{"read-epoll", kernel.SysRead, [6]uint64{ep, scratch + 512, 8}, kernel.EINVAL},
		{"write-epoll", kernel.SysWrite, [6]uint64{ep, scratch + 512, 8}, kernel.EINVAL},
		// Access-mode violations on regular files are EBADF, not EINVAL.
		{"read-write-only", kernel.SysRead, [6]uint64{wo, scratch + 512, 8}, kernel.EBADF},
		{"write-read-only", kernel.SysWrite, [6]uint64{ro, scratch + 512, 8}, kernel.EBADF},
		// Socket calls on a live non-socket descriptor are ENOTSOCK, not
		// EBADF (the descriptor is valid, its type is wrong).
		{"bind-file", kernel.SysBind, [6]uint64{file, 9000}, kernel.ENOTSOCK},
		{"listen-file", kernel.SysListen, [6]uint64{file, 8}, kernel.ENOTSOCK},
		{"accept-file", kernel.SysAccept, [6]uint64{file}, kernel.ENOTSOCK},
		// Rebinding a listener is EINVAL; re-listen is idempotent.
		{"bind-listener-again", kernel.SysBind, [6]uint64{lst, 9001}, kernel.EINVAL},
		{"listen-again", kernel.SysListen, [6]uint64{lst, 8}, 0},
	})
}

// buildEINTRProbe builds a guest that binds and listens on port, installs
// a handler for signal 10 with the given sa_flags, then issues a *raw*
// accept (no libc retry loop, so an EINTR abort stays visible in RAX)
// through either a SYSCALL or a SYSENTER encoding. The entry instruction
// is at exported symbol "accept_site"; the accept outcome lands in the
// exported "result" word; the exit code is the handler run count, +10
// when accept eventually succeeded.
func buildEINTRProbeEntry(path string, port, flags uint32, sysenter bool) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label("handled").U64(0)
	d.Label("result").U64(0)
	tx := b.Text()

	tx.Label(".handler")
	tx.MovImmSym(cpu.R11, "handled")
	tx.Load(cpu.RCX, cpu.R11, 0)
	tx.AddImm(cpu.RCX, 1)
	tx.Store(cpu.R11, 0, cpu.RCX)
	tx.MovImm32(cpu.RAX, kernel.SysRtSigreturn)
	tx.Syscall()

	tx.Label("_start")
	tx.CallSym("socket")
	tx.Mov(cpu.RBX, cpu.RAX)
	tx.Mov(cpu.RDI, cpu.RAX)
	tx.MovImm32(cpu.RSI, port)
	tx.CallSym("bind")
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.MovImm32(cpu.RSI, 1)
	tx.CallSym("listen")
	tx.MovImm32(cpu.RDI, 10)
	tx.MovImmSym(cpu.RSI, ".handler")
	tx.MovImm32(cpu.RDX, flags)
	tx.CallSym("sigaction")
	// Raw accept: at block time RAX still holds the number, so a
	// SA_RESTART rewind re-executes this exact entry instruction.
	tx.Mov(cpu.RDI, cpu.RBX)
	tx.MovImm32(cpu.RAX, kernel.SysAccept)
	tx.Label("accept_site")
	if sysenter {
		tx.Sysenter()
	} else {
		tx.Syscall()
	}
	tx.MovImmSym(cpu.R11, "result")
	tx.Store(cpu.R11, 0, cpu.RAX)
	// exit code = handled (+10 if accept returned a descriptor)
	tx.MovImmSym(cpu.R11, "handled")
	tx.Load(cpu.RDI, cpu.R11, 0)
	tx.CmpImm(cpu.RAX, 0)
	tx.Jl(".exit")
	tx.AddImm(cpu.RDI, 10)
	tx.Label(".exit")
	tx.CallSym("exit_group")
	return b.MustBuild()
}

// TestConformanceEINTRRestart pins both sides of the Linux
// signal-at-blocked-syscall contract: a handler installed without
// SA_RESTART aborts a blocked accept with EINTR in RAX; with SA_RESTART
// the accept silently re-executes and completes on the next connection.
func TestConformanceEINTRRestart(t *testing.T) {
	const port = 9191

	t.Run("eintr", func(t *testing.T) {
		k, l, reg := newWorld(t)
		reg.MustAdd(buildEINTRProbeEntry("/bin/eintr", port, 0, false))
		p, err := l.Spawn("/bin/eintr", []string{"eintr"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
		mt := p.MainThread()
		if mt.State != kernel.ThreadBlocked {
			t.Fatalf("thread state = %v, want blocked in accept", mt.State)
		}
		k.PostSignal(p, 10)
		if mt.WakePending() {
			t.Fatal("EINTR abort leaked the wake condition")
		}
		if mt.State != kernel.ThreadRunnable {
			t.Fatalf("thread state after signal = %v, want runnable", mt.State)
		}
		k.Run(1_000_000)
		if p.State != kernel.ProcZombie {
			t.Fatalf("process did not exit: state %v", p.State)
		}
		// Handler ran once and accept was NOT retried: exit code 1.
		if p.Exit.Code != 1 {
			t.Fatalf("exit = %+v, want code 1 (one handler run, accept aborted)", p.Exit)
		}
		resAddr, ok := l.GlobalSymbol(p, "result")
		if !ok {
			t.Fatal("no result symbol")
		}
		res, err := p.AS.KLoadU64(resAddr)
		if err != nil {
			t.Fatal(err)
		}
		wantErrno(t, "raw accept after signal", res, kernel.EINTR)
	})

	t.Run("sa-restart", func(t *testing.T) {
		k, l, reg := newWorld(t)
		reg.MustAdd(buildEINTRProbeEntry("/bin/restart", port, kernel.SARestart, false))
		p, err := l.Spawn("/bin/restart", []string{"restart"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
		mt := p.MainThread()
		if mt.State != kernel.ThreadBlocked {
			t.Fatalf("thread state = %v, want blocked in accept", mt.State)
		}
		k.PostSignal(p, 10)
		if mt.WakePending() {
			t.Fatal("restart interruption leaked the wake condition")
		}
		// Handler runs, sigreturn re-executes the accept, which blocks
		// again — EINTR never surfaces.
		k.Run(1_000_000)
		if mt.State != kernel.ThreadBlocked {
			t.Fatalf("thread state after restart = %v, want blocked again", mt.State)
		}
		if err := k.InjectConn(port, []byte("x"), 1, nil); err != nil {
			t.Fatal(err)
		}
		k.Run(1_000_000)
		if p.State != kernel.ProcZombie {
			t.Fatalf("process did not exit: state %v", p.State)
		}
		// Handler ran once and the restarted accept succeeded: 1 + 10.
		if p.Exit.Code != 11 {
			t.Fatalf("exit = %+v, want code 11 (one handler run, accept restarted)", p.Exit)
		}
		resAddr, ok := l.GlobalSymbol(p, "result")
		if !ok {
			t.Fatal("no result symbol")
		}
		res, err := p.AS.KLoadU64(resAddr)
		if err != nil {
			t.Fatal(err)
		}
		wantOK(t, "restarted accept", res)
	})
}

// TestConformanceWaitAndSignal covers the wait4/kill interplay the fleet
// and PoC harnesses depend on: a SIGKILL'd child becomes reapable, the
// reported status carries the signal number, and a wait with no
// reapable children blocks until one appears. Whether a *signal* aborts
// such a blocked call with EINTR or restarts it is the handler's
// SA_RESTART choice — TestConformanceEINTRRestart pins both sides.
func TestConformanceWaitAndSignal(t *testing.T) {
	k, p, mt, scratch := confWorld(t)

	child := k.DirectSyscall(mt, kernel.SysFork, [6]uint64{})
	wantOK(t, "fork", child)
	if int(child) <= p.PID {
		t.Fatalf("fork returned pid %d, want > parent %d", child, p.PID)
	}

	// Signal the child: it must become a zombie, not vanish.
	wantOK(t, "kill(child, SIGKILL)", k.DirectSyscall(mt, kernel.SysKill, [6]uint64{child, kernel.SIGKILL}))
	cp, ok := k.Process(int(child))
	if !ok {
		t.Fatal("killed child disappeared before being reaped")
	}
	if cp.State != kernel.ProcZombie {
		t.Fatalf("child state = %v, want zombie", cp.State)
	}

	// wait4 reaps it immediately and reports the terminating signal.
	statusAddr := scratch + 64
	got := k.DirectSyscall(mt, kernel.SysWait4, [6]uint64{^uint64(0), statusAddr})
	if got != child {
		t.Fatalf("wait4 = %d, want child pid %d", got, child)
	}
	status, err := p.AS.KLoadU64(statusAddr)
	if err != nil {
		t.Fatal(err)
	}
	if status != kernel.SIGKILL {
		t.Errorf("wait status = %#x, want signal %d", status, kernel.SIGKILL)
	}

	// With no reapable children left, wait4 blocks the thread (no
	// ECHILD, no EINTR): the blocked syscall restarts when a child
	// becomes reapable.
	k.DirectSyscall(mt, kernel.SysWait4, [6]uint64{^uint64(0), 0})
	if mt.State != kernel.ThreadBlocked {
		t.Fatalf("thread state after childless wait4 = %v, want blocked", mt.State)
	}

	// A new zombie child satisfies the wake condition: the scheduler
	// marks the waiter runnable again instead of surfacing EINTR.
	c2 := k.DirectSyscall(mt, kernel.SysFork, [6]uint64{})
	wantOK(t, "fork-2", c2)
	wantOK(t, "kill-2", k.DirectSyscall(mt, kernel.SysKill, [6]uint64{c2, kernel.SIGKILL}))
	if !k.Runnable() {
		t.Fatal("waiter not woken by reapable child")
	}
	if mt.State != kernel.ThreadRunnable {
		t.Fatalf("thread state after wake = %v, want runnable", mt.State)
	}
}
