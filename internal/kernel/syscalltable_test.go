package kernel

import "testing"

// TestTransientClassPinned pins, for every number in 0..600, the errno
// the chaos injector's transient class assigns at syscall entry. The
// class decides which calls can fail and with what, and so which libc
// retry loops a seed exercises: moving a row changes chaos streams.
func TestTransientClassPinned(t *testing.T) {
	want := map[uint64]int{
		SysRead: EAGAIN, SysWrite: EAGAIN, SysRecvfrom: EAGAIN, SysSendto: EAGAIN,
		SysMmap: ENOMEM,
		SysOpen: EMFILE, SysOpenat: EMFILE, SysSocket: EMFILE, SysAccept: EMFILE, SysAccept4: EMFILE,
	}
	for nr := uint64(0); nr <= 600; nr++ {
		c := &chaosState{prof: ChaosProfile{Transient: 1024}}
		if got := c.transientErrno(nr); got != want[nr] {
			t.Errorf("transientErrno(%d) = %d, want %d", nr, got, want[nr])
		}
	}
}

// TestSyscallTableIntegrity: every row has its own number, Linux name
// and libc symbol, at most six arguments, and retry errnos only where a
// wrapper exists to loop on them.
func TestSyscallTableIntegrity(t *testing.T) {
	nrs, names, syms := map[uint64]bool{}, map[string]bool{}, map[string]bool{}
	for _, sc := range Syscalls {
		if nrs[sc.Nr] || names[sc.Name] || (sc.Libc != "" && syms[sc.Libc]) {
			t.Errorf("%s (%d): duplicate number, name or libc symbol", sc.Name, sc.Nr)
		}
		nrs[sc.Nr], names[sc.Name], syms[sc.Libc] = true, true, true
		if sc.Name == "" || sc.Arity < 0 || sc.Arity > 6 {
			t.Errorf("%d: name %q, arity %d", sc.Nr, sc.Name, sc.Arity)
		}
		if len(sc.Retry) != 0 && sc.Libc == "" {
			t.Errorf("%s: retry errnos but no libc wrapper", sc.Name)
		}
	}
}
