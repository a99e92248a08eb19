package kernel

import (
	"fmt"
	"strconv"
	"strings"
)

// Syscall is one row of the syscall table: everything the simulation
// knows about a system call, keyed by its number. Dispatch, strace-style
// naming, libc's wrappers and the chaos injector all read the table, so
// adding a syscall is one row.
type Syscall struct {
	Nr   uint64
	Name string // Linux name
	// Arity is the number of meaningful argument registers (man 2
	// syscall). The guest does not clear the others, so renderers must
	// not print them.
	Arity int
	// do services the call; nil names a call the kernel does not model,
	// which fails with ENOSYS like an unknown number.
	do func(k *Kernel, t *Thread, a [6]uint64) (ret uint64, noReturn bool)
	// Libc is the symbol of libc's plain wrapper ("" for none; write,
	// gettimeofday and clock_gettime have hand-written ones). Retry lists
	// the errnos the wrapper re-issues the call on, glibc-style.
	Libc  string
	Retry []int
	// Transient is the errno the chaos injector may fail the call with
	// at entry, the idiomatic one for its Linux counterpart (0: never).
	Transient int
}

// Syscalls is the syscall table. Its order is libc's wrapper order,
// which fixes libc's image layout.
var Syscalls = []Syscall{
	{Nr: SysRead, Name: "read", Arity: 3, do: (*Kernel).sysRead, Libc: "read", Retry: []int{EINTR, EAGAIN}, Transient: EAGAIN},
	{Nr: SysWrite, Name: "write", Arity: 3, do: (*Kernel).sysWrite, Transient: EAGAIN},
	{Nr: SysOpen, Name: "open", Arity: 2, do: (*Kernel).sysOpen, Libc: "open", Retry: []int{EINTR, EMFILE}, Transient: EMFILE},
	{Nr: SysOpenat, Name: "openat", Arity: 3, do: (*Kernel).sysOpenat, Libc: "openat", Retry: []int{EINTR, EMFILE}, Transient: EMFILE},
	{Nr: SysClose, Name: "close", Arity: 1, do: (*Kernel).sysClose, Libc: "close"},
	{Nr: SysStat, Name: "stat", Arity: 2, do: (*Kernel).sysStat, Libc: "stat"},
	{Nr: SysFstat, Name: "fstat", Arity: 2, do: (*Kernel).sysFstat, Libc: "fstat"},
	{Nr: SysMmap, Name: "mmap", Arity: 6, do: (*Kernel).sysMmap, Libc: "mmap", Retry: []int{EINTR, ENOMEM}, Transient: ENOMEM},
	{Nr: SysMprotect, Name: "mprotect", Arity: 3, do: (*Kernel).sysMprotect, Libc: "mprotect"},
	{Nr: SysMunmap, Name: "munmap", Arity: 2, do: (*Kernel).sysMunmap, Libc: "munmap"},
	{Nr: SysBrk, Name: "brk", Arity: 1, do: (*Kernel).sysNop},
	{Nr: SysRtSigaction, Name: "rt_sigaction", Arity: 4, do: (*Kernel).sysSigaction, Libc: "sigaction"},
	{Nr: SysRtSigprocmask, Name: "rt_sigprocmask", Arity: 4, do: (*Kernel).sysNop},
	{Nr: SysRtSigreturn, Name: "rt_sigreturn", Arity: 0, do: (*Kernel).sysSigreturn, Libc: "sigreturn"},
	{Nr: SysIoctl, Name: "ioctl", Arity: 3, do: (*Kernel).sysNop, Libc: "ioctl"},
	{Nr: SysAccess, Name: "access", Arity: 2, do: (*Kernel).sysAccess, Libc: "access"},
	{Nr: SysSchedYield, Name: "sched_yield", Arity: 0, do: (*Kernel).sysNop, Libc: "sched_yield"},
	{Nr: SysMadvise, Name: "madvise", Arity: 3, do: (*Kernel).sysNop, Libc: "madvise"},
	{Nr: SysNanosleep, Name: "nanosleep", Arity: 2, do: (*Kernel).sysNop, Libc: "nanosleep"},
	{Nr: SysGetpid, Name: "getpid", Arity: 0, do: (*Kernel).sysGetpid, Libc: "getpid"},
	{Nr: SysSocket, Name: "socket", Arity: 3, do: (*Kernel).sysSocket, Libc: "socket", Retry: []int{EINTR, EMFILE}, Transient: EMFILE},
	{Nr: SysAccept, Name: "accept", Arity: 3, do: (*Kernel).sysAccept, Libc: "accept", Retry: []int{EINTR, EAGAIN, EMFILE}, Transient: EMFILE},
	{Nr: SysAccept4, Name: "accept4", Arity: 4, do: (*Kernel).sysAccept, Transient: EMFILE},
	{Nr: SysSendto, Name: "sendto", Arity: 6, do: (*Kernel).sysWrite, Transient: EAGAIN},
	{Nr: SysRecvfrom, Name: "recvfrom", Arity: 6, do: (*Kernel).sysRead, Transient: EAGAIN},
	{Nr: SysBind, Name: "bind", Arity: 3, do: (*Kernel).sysBind, Libc: "bind"},
	{Nr: SysListen, Name: "listen", Arity: 2, do: (*Kernel).sysListen, Libc: "listen"},
	{Nr: SysClone, Name: "clone", Arity: 5, do: (*Kernel).sysClone, Libc: "clone"},
	{Nr: SysFork, Name: "fork", Arity: 0, do: (*Kernel).sysFork, Libc: "fork"},
	{Nr: SysExecve, Name: "execve", Arity: 3, do: (*Kernel).sysExecve, Libc: "execve"},
	{Nr: SysExit, Name: "exit", Arity: 1, do: (*Kernel).sysExit, Libc: "exit"},
	{Nr: SysExitGroup, Name: "exit_group", Arity: 1, do: (*Kernel).sysExitGroup, Libc: "exit_group"},
	{Nr: SysWait4, Name: "wait4", Arity: 4, do: (*Kernel).sysWait4, Libc: "wait4", Retry: []int{EINTR}},
	{Nr: SysKill, Name: "kill", Arity: 2, do: (*Kernel).sysKill, Libc: "kill"},
	{Nr: SysUname, Name: "uname", Arity: 1, do: (*Kernel).sysUname, Libc: "uname"},
	{Nr: SysFcntl, Name: "fcntl", Arity: 3, do: (*Kernel).sysNop, Libc: "fcntl"},
	{Nr: SysGetcwd, Name: "getcwd", Arity: 2, do: (*Kernel).sysGetcwd, Libc: "getcwd"},
	{Nr: SysChdir, Name: "chdir", Arity: 1, do: (*Kernel).sysNop, Libc: "chdir"},
	{Nr: SysMkdir, Name: "mkdir", Arity: 2, do: (*Kernel).sysMkdir, Libc: "mkdir"},
	{Nr: SysUnlink, Name: "unlink", Arity: 1, do: (*Kernel).sysUnlink, Libc: "unlink"},
	{Nr: SysChmod, Name: "chmod", Arity: 2, do: (*Kernel).sysChmod, Libc: "chmod"},
	{Nr: SysGettimeofday, Name: "gettimeofday", Arity: 2, do: (*Kernel).sysGettimeofday},
	{Nr: SysPtrace, Name: "ptrace", Arity: 4}, // tracers are host-level
	{Nr: SysGetuid, Name: "getuid", Arity: 0, do: (*Kernel).sysGetuid, Libc: "getuid"},
	{Nr: SysPrctl, Name: "prctl", Arity: 5, do: (*Kernel).sysPrctl, Libc: "prctl"},
	{Nr: SysArchPrctl, Name: "arch_prctl", Arity: 2, do: (*Kernel).sysNop},
	{Nr: SysGettid, Name: "gettid", Arity: 0, do: (*Kernel).sysGettid, Libc: "gettid"},
	{Nr: SysTime, Name: "time", Arity: 1, do: (*Kernel).sysTime},
	{Nr: SysFutex, Name: "futex", Arity: 6, do: (*Kernel).sysNop, Libc: "futex"},
	{Nr: SysEpollWait, Name: "epoll_wait", Arity: 4, do: (*Kernel).sysNop, Libc: "epoll_wait"},
	{Nr: SysEpollCtl, Name: "epoll_ctl", Arity: 4, do: (*Kernel).sysNop, Libc: "epoll_ctl"},
	{Nr: SysEpollCreate1, Name: "epoll_create1", Arity: 1, do: (*Kernel).sysEpollCreate1, Libc: "epoll_create1"},
	{Nr: SysClockGettime, Name: "clock_gettime", Arity: 2, do: (*Kernel).sysClockGettime},
	{Nr: SysSeccomp, Name: "seccomp", Arity: 3, do: (*Kernel).sysSeccomp},
	{Nr: SysProcessVMReadv, Name: "process_vm_readv", Arity: 6},
	{Nr: SysGetrandom, Name: "getrandom", Arity: 3, do: (*Kernel).sysGetrandom, Libc: "getrandom"},
	{Nr: SysPkeyMprotect, Name: "pkey_mprotect", Arity: 4, do: (*Kernel).sysPkeyMprotect, Libc: "pkey_mprotect"},
	{Nr: SysPkeyAlloc, Name: "pkey_alloc", Arity: 2, do: (*Kernel).sysPkeyAlloc, Libc: "pkey_alloc"},
	{Nr: SysPkeyFree, Name: "pkey_free", Arity: 1, do: (*Kernel).sysPkeyFree, Libc: "pkey_free"},
}

// syscallByNr and syscallByName index Syscalls.
var syscallByNr, syscallByName = indexSyscalls()

func indexSyscalls() ([]*Syscall, map[string]uint64) {
	var byNr []*Syscall
	byName := make(map[string]uint64, len(Syscalls))
	for i := range Syscalls {
		sc := &Syscalls[i]
		for uint64(len(byNr)) <= sc.Nr {
			byNr = append(byNr, nil)
		}
		byNr[sc.Nr] = sc
		byName[sc.Name] = sc.Nr
	}
	return byNr, byName
}

// lookupSyscall returns nr's table row, or nil.
func lookupSyscall(nr uint64) *Syscall {
	if nr < uint64(len(syscallByNr)) {
		return syscallByNr[nr]
	}
	return nil
}

// SyscallName returns the Linux name of nr, or "syscall_N" for numbers
// the table does not name (e.g. the microbenchmark's 500).
func SyscallName(nr uint64) string {
	if sc := lookupSyscall(nr); sc != nil {
		return sc.Name
	}
	return fmt.Sprintf("syscall_%d", nr)
}

// SyscallNrByName is the inverse of SyscallName. The "syscall_N"
// spelling round-trips too, so every number SyscallName can render is
// resolvable.
func SyscallNrByName(name string) (uint64, bool) {
	if nr, ok := syscallByName[name]; ok {
		return nr, true
	}
	if rest, ok := strings.CutPrefix(name, "syscall_"); ok {
		if nr, err := strconv.ParseUint(rest, 10, 64); err == nil {
			return nr, true
		}
	}
	return 0, false
}

// SyscallArity returns the argument count of nr if the table names it.
func SyscallArity(nr uint64) (int, bool) {
	if sc := lookupSyscall(nr); sc != nil {
		return sc.Arity, true
	}
	return 0, false
}
