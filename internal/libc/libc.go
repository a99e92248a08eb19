// Package libc builds the shared C-library analogue of the simulated
// platform: one exported wrapper per system call (each containing exactly
// one SYSCALL instruction site, like glibc's syscall stubs), vdso-aware
// time functions, small string/memory helpers, and an initializer that
// performs glibc-style startup work (locale loading) — system calls that
// run before any LD_PRELOAD interposer initializes.
//
// Calling convention: arguments in RDI, RSI, RDX, R10, R8, R9 (the kernel
// syscall argument registers; the platform uses them for function calls
// too, so wrappers need no shuffling), return in RAX, R12 clobbered by
// cross-image calls.
package libc

import (
	"sync"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
)

// Path is the canonical libc path.
const Path = "/usr/lib/libc.so.6"

// Hostcall ids the loader registers for every process (dlopen family).
// They live in the kernel package so both libc and the loader can name
// them without a dependency cycle.
const (
	HostcallDlopen  = kernel.HostcallDlopen
	HostcallDlmopen = kernel.HostcallDlmopen
)

var (
	buildOnce sync.Once
	img       *image.Image
)

// Image returns the libc image (built once; images are immutable).
func Image() *image.Image {
	buildOnce.Do(func() { img = build() })
	return img
}

// wrapper emits "name: mov rax, nr; syscall; ret" — one unique syscall
// instruction site per wrapper, as in glibc. When retriable errnos are
// given, the wrapper is an honest glibc-style stub: it compares the
// return value against each and loops back to re-issue the call
// (TEMP_FAILURE_RETRY). The loop re-enters at the mov so RAX is reloaded
// with the number — which also keeps the wrapper correct after a
// zpoline-style rewrite, where RAX doubles as the trampoline address.
// The kernel preserves the argument registers across a syscall, so no
// further state needs saving.
func wrapper(t *asm.SectionBuilder, name string, nr uint32, retriable ...int) {
	t.Label(name)
	t.MovImm32(cpu.RAX, nr)
	t.Label("." + name + "_syscall_site")
	t.Syscall()
	for _, e := range retriable {
		t.CmpImm(cpu.RAX, int32(-e))
		t.Jz(name)
	}
	t.Ret()
}

func build() *image.Image {
	b := asm.NewBuilder(Path)
	t := b.Text()

	// --- plain syscall wrappers, one per syscall-table row that names
	// one. Wrappers for calls that fail transiently on Linux carry honest
	// retry loops: EINTR (a signal interrupted the call and the handler
	// was installed without SA_RESTART), EAGAIN (wakeup raced the data),
	// EMFILE/ENOMEM (transient descriptor/memory pressure). The chaos
	// injector exercises every one of these paths.
	for _, sc := range kernel.Syscalls {
		if sc.Libc != "" {
			wrapper(t, sc.Libc, uint32(sc.Nr), sc.Retry...)
		}
	}

	// write(fd, buf, n): glibc-style full-delivery loop. A short write —
	// the kernel consumed only a prefix — advances the buffer and
	// re-issues the call for the remainder; EINTR/EAGAIN retry in place.
	// Returns the total byte count (callers that wrote n expect n back),
	// or the first hard errno. RBX accumulates the total across
	// re-issues (callee-saved, as in the libc_init idiom).
	t.Label("write")
	t.Push(cpu.RBX)
	t.Push(cpu.RSI)
	t.Push(cpu.RDX)
	t.Xor(cpu.RBX, cpu.RBX)
	t.Label(".write_retry")
	t.MovImm32(cpu.RAX, kernel.SysWrite)
	t.Label(".write_syscall_site")
	t.Syscall()
	t.CmpImm(cpu.RAX, int32(-kernel.EINTR))
	t.Jz(".write_retry")
	t.CmpImm(cpu.RAX, int32(-kernel.EAGAIN))
	t.Jz(".write_retry")
	t.CmpImm(cpu.RAX, 0)
	t.Jl(".write_err") // hard errno: surface it
	t.Add(cpu.RBX, cpu.RAX)
	t.Add(cpu.RSI, cpu.RAX)
	t.Sub(cpu.RDX, cpu.RAX)
	t.Test(cpu.RDX, cpu.RDX)
	t.Jnz(".write_retry")
	t.Mov(cpu.RAX, cpu.RBX)
	t.Label(".write_err")
	t.Pop(cpu.RDX)
	t.Pop(cpu.RSI)
	t.Pop(cpu.RBX)
	t.Ret()

	// syscall(nr, a0..a4): the generic syscall() entry point.
	t.Label("syscall")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Mov(cpu.RDI, cpu.RSI)
	t.Mov(cpu.RSI, cpu.RDX)
	t.Mov(cpu.RDX, cpu.R10)
	t.Mov(cpu.R10, cpu.R8)
	t.Mov(cpu.R8, cpu.R9)
	t.Label(".syscall_generic_site")
	t.Syscall()
	t.Ret()

	// gettimeofday(tv): prefer the vdso (no SYSCALL executed); fall back
	// to the trap when the vdso is absent (ptracer-disabled, P2b fix).
	timeFn := func(name, vdsoSym string, nr uint32) {
		t.Label(name)
		t.MovImmSym(cpu.R11, vdsoSym) // weak: 0 when vdso disabled
		t.Test(cpu.R11, cpu.R11)
		t.Jz("." + name + "_slow")
		t.JmpReg(cpu.R11) // tail-call into the vdso
		t.Label("." + name + "_slow")
		t.MovImm32(cpu.RAX, nr)
		t.Syscall()
		t.Ret()
	}
	timeFn("gettimeofday", "__vdso_gettimeofday", kernel.SysGettimeofday)
	timeFn("clock_gettime", "__vdso_clock_gettime", kernel.SysClockGettime)

	// dlopen(path) / dlmopen(path): host-mediated dynamic loading.
	t.Label("dlopen")
	t.Hostcall(HostcallDlopen)
	t.Ret()
	t.Label("dlmopen")
	t.Hostcall(HostcallDlmopen)
	t.Ret()
	// dlsym(name) -> address (0 if undefined).
	t.Label("dlsym")
	t.Hostcall(kernel.HostcallDlsym)
	t.Ret()

	// --- string/memory helpers ---

	// memcpy(dst, src, n) -> dst
	t.Label("memcpy")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Label(".memcpy_loop")
	t.Test(cpu.RDX, cpu.RDX)
	t.Jz(".memcpy_done")
	t.LoadB(cpu.R11, cpu.RSI, 0)
	t.StoreB(cpu.RDI, 0, cpu.R11)
	t.AddImm(cpu.RDI, 1)
	t.AddImm(cpu.RSI, 1)
	t.AddImm(cpu.RDX, -1)
	t.Jmp(".memcpy_loop")
	t.Label(".memcpy_done")
	t.Ret()

	// memset(dst, c, n) -> dst
	t.Label("memset")
	t.Mov(cpu.RAX, cpu.RDI)
	t.Label(".memset_loop")
	t.Test(cpu.RDX, cpu.RDX)
	t.Jz(".memset_done")
	t.StoreB(cpu.RDI, 0, cpu.RSI)
	t.AddImm(cpu.RDI, 1)
	t.AddImm(cpu.RDX, -1)
	t.Jmp(".memset_loop")
	t.Label(".memset_done")
	t.Ret()

	// strlen(s) -> len
	t.Label("strlen")
	t.Xor(cpu.RAX, cpu.RAX)
	t.Label(".strlen_loop")
	t.LoadB(cpu.R11, cpu.RDI, 0)
	t.Test(cpu.R11, cpu.R11)
	t.Jz(".strlen_done")
	t.AddImm(cpu.RAX, 1)
	t.AddImm(cpu.RDI, 1)
	t.Jmp(".strlen_loop")
	t.Label(".strlen_done")
	t.Ret()

	// --- libc initializer: glibc-style startup syscalls ---
	// These run in dependency order before any LD_PRELOAD interposer's
	// own initializer, widening the pre-interposition blind spot that
	// the paper measures for `ls` (§6.1).
	rodata := b.Rodata()
	rodata.Label(".str_locale").CString("/usr/lib/locale/locale-archive")
	rodata.Label(".str_gconv").CString("/usr/lib/gconv/gconv-modules.cache")
	rodata.Label(".str_nss").CString("/etc/nsswitch.conf")
	rodata.Label(".str_tz").CString("/etc/localtime")
	data := b.Data()
	data.Label(".libc_statbuf").Space(160)

	t.Label("libc_init")
	t.Push(cpu.RBX)
	probe := func(strLabel string) {
		t.MovImmSym(cpu.RDI, strLabel)
		t.MovImm32(cpu.RSI, 0)
		t.CallSym("open")
		t.Mov(cpu.RBX, cpu.RAX) // fd (or -errno for missing probe files)
		t.Mov(cpu.RDI, cpu.RBX)
		t.MovImmSym(cpu.RSI, ".libc_statbuf")
		t.CallSym("fstat")
		t.MovImm32(cpu.RDI, 0)
		t.MovImm32(cpu.RSI, 4096)
		t.MovImm32(cpu.RDX, kernel.ProtRead)
		t.CallSym("mmap")
		t.Mov(cpu.RDI, cpu.RBX)
		t.CallSym("close")
	}
	probe(".str_locale")
	probe(".str_gconv")
	probe(".str_nss")
	probe(".str_tz")
	t.CallSym("getpid")
	t.CallSym("getuid")
	t.Pop(cpu.RBX)
	t.Ret()

	b.Init("libc_init")
	return b.MustBuild()
}
