package apps

import (
	"fmt"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
)

// BasePort is the port offset servers listen on: port = BasePort + pid.
// Real deployments share one listener across workers; the simulated
// platform gives each worker process its own port, and the benchmark
// client targets them all.
const BasePort = 8000

// Per-request compute parameters (cycles are approximate; see the
// calibration test and EXPERIMENTS.md). work loops cost ~5 cycles/iter.
const (
	nginxWorkIters    = 3200
	lighttpdWorkIters = 3100
	redisExecIters    = 2650
	redisIOIters      = 600
	sqliteOpIters     = 900

	// RequestSize is what the benchmark client sends per request.
	RequestSize = 64
	// Resp0K and Resp4K are the response sizes for the 0 KB and 4 KB
	// static-file configurations.
	Resp0K = 128
	Resp4K = 4096 + 128

	// SqliteOps is the op count of the speedtest1-style workload
	// (-size 800 analogue, scaled for simulation).
	SqliteOps = 800

	// RedisMainIters is the fixed iteration count of the main-thread
	// component workload.
	RedisMainIters = 2000
)

// Site-bank sizes, tuned so each application's offline profile matches
// Table 2 (see TestTable2SiteCounts).
const (
	nginxBank    = 30
	lighttpdBank = 31
	redisBank    = 82
	sqliteBank   = 15
)

// bankSyscalls are cheap syscalls the site banks rotate through.
var bankSyscalls = []uint32{
	kernel.SysGetpid, kernel.SysGetuid, kernel.SysGettid,
	kernel.SysSchedYield, kernel.SysTime,
}

// emitBank emits n distinct inline syscall sites plus "bank_exercise",
// which executes each once. Real servers hit tens of distinct syscall
// instructions while loading configuration and warming caches; the bank
// models that spread of sites (§5.1, Table 2).
func emitBank(t *asm.SectionBuilder, n int) {
	t.Label(".bank_exercise")
	for i := 0; i < n; i++ {
		t.Call(fmt.Sprintf(".bank%d", i))
	}
	t.Ret()
	for i := 0; i < n; i++ {
		t.Label(fmt.Sprintf(".bank%d", i))
		t.Xor(cpu.RDI, cpu.RDI) // well-behaved: NULL out-pointers
		t.MovImm32(cpu.RAX, bankSyscalls[i%len(bankSyscalls)])
		t.Syscall()
		t.Ret()
	}
}

// emitWorkLoop emits a countdown compute loop of `iters` iterations
// (~5 cycles each: imul + add + jnz).
func emitWorkLoop(t *asm.SectionBuilder, label string, iters uint32) {
	t.Label(label)
	t.MovImm32(cpu.RCX, iters)
	t.MovImm32(cpu.RAX, 0x9e37)
	t.Label(label + "_loop")
	t.Mul(cpu.RAX, cpu.RCX)
	t.AddImm(cpu.RCX, -1)
	t.Jnz(label + "_loop")
	t.Ret()
}

// emitParse emits a checksum loop over the first 64 request bytes at
// [RSI] (clobbers RAX, RCX, R11).
func emitParse(t *asm.SectionBuilder, label string) {
	t.Label(label)
	t.Xor(cpu.RAX, cpu.RAX)
	t.MovImm32(cpu.RCX, RequestSize)
	t.Label(label + "_loop")
	t.LoadB(cpu.R11, cpu.RSI, 0)
	t.Add(cpu.RAX, cpu.R11)
	t.AddImm(cpu.RSI, 1)
	t.AddImm(cpu.RCX, -1)
	t.Jnz(label + "_loop")
	t.Ret()
}

// emitBody emits the body-construction loop for an n-byte response:
// touch the response buffer in 8-byte strides ([RSI] base).
func emitBody(t *asm.SectionBuilder, label string, n uint32) {
	t.Label(label)
	t.MovImm32(cpu.RCX, n/8)
	t.Label(label + "_loop")
	t.Load(cpu.R11, cpu.RSI, 0)
	t.AddImm(cpu.R11, 1)
	t.Store(cpu.RSI, 0, cpu.R11)
	t.AddImm(cpu.RSI, 8)
	t.AddImm(cpu.RCX, -1)
	t.Jnz(label + "_loop")
	t.Ret()
}

// emitServerSetup emits getpid/socket/bind/listen/accept; leaves the
// connection fd in RBP. Port = BasePort + pid.
func emitServerSetup(t *asm.SectionBuilder) {
	t.CallSym("getpid")
	t.Mov(cpu.RBX, cpu.RAX)
	t.AddImm(cpu.RBX, BasePort) // port
	t.CallSym("socket")
	t.Mov(cpu.R15, cpu.RAX) // listen fd
	t.Mov(cpu.RDI, cpu.R15)
	t.Mov(cpu.RSI, cpu.RBX)
	t.CallSym("bind")
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 128)
	t.CallSym("listen")
	t.MovImm32(cpu.RDI, 0)
	t.CallSym("epoll_create1")
	t.Mov(cpu.R9, cpu.RAX) // epoll fd
	t.Mov(cpu.RDI, cpu.R15)
	t.CallSym("accept")
	t.Mov(cpu.RBP, cpu.RAX) // conn fd
}

// buildHTTPServer builds an nginx/lighttpd-style worker. argv[1] is the
// static-file configuration: "0" (0 KB) or "4" (4 KB). The worker serves
// one keepalive connection to completion (the wrk model) and exits with
// the number of requests served (mod 256).
func buildHTTPServer(path string, bank int, workIters uint32) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".reqbuf").Space(RequestSize + 64)
	d.Label(".respbuf").Space(Resp4K + 64)
	t := b.Text()

	t.Label("_start")
	// argv[1][0] == '4' selects the 4 KB body.
	t.Load(cpu.R14, cpu.RSI, 8) // argv[1]
	t.LoadB(cpu.R14, cpu.R14, 0)
	// Warm-up / configuration phase: exercise the site bank.
	t.Call(".bank_exercise")
	emitServerSetup(t)
	t.Xor(cpu.R13, cpu.R13) // served counter

	t.Label(".serve")
	// Event loop: epoll_wait for readiness, then read the request.
	t.Mov(cpu.RDI, cpu.R9)
	t.CallSym("epoll_wait")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".reqbuf")
	t.MovImm32(cpu.RDX, RequestSize)
	t.CallSym("read")
	t.Test(cpu.RAX, cpu.RAX)
	t.Jz(".finish")
	// Parse the request.
	t.MovImmSym(cpu.RSI, ".reqbuf")
	t.Call(".parse")
	// Request-handling work.
	t.Call(".work")
	// Build the body and pick the response length. The 4 KB body goes
	// out as header + body chunks (writev-style), the 0 KB response as
	// one write.
	t.CmpImm(cpu.R14, '4')
	t.Jnz(".small")
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.Call(".body4k")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.MovImm32(cpu.RDX, Resp0K) // header chunk
	t.CallSym("write")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.MovImm32(cpu.RDX, Resp4K-Resp0K) // body chunk
	t.CallSym("write")
	t.Call(".post_request")
	t.AddImm(cpu.R13, 1)
	t.Jmp(".serve")
	t.Label(".small")
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.Call(".body0k")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.MovImm32(cpu.RDX, Resp0K)
	t.CallSym("write")
	t.Call(".post_request")
	t.AddImm(cpu.R13, 1)
	t.Jmp(".serve")

	// Per-request housekeeping, as real servers do: TCP_NODELAY-style
	// setsockopt (modelled by fcntl), connection state ioctl, and epoll
	// re-arm.
	t.Label(".post_request")
	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("fcntl")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImm32(cpu.RSI, 0x5421)
	t.CallSym("ioctl")
	t.Mov(cpu.RDI, cpu.R9)
	t.Mov(cpu.RSI, cpu.RBP)
	t.CallSym("epoll_ctl")
	t.Ret()

	t.Label(".finish")
	t.Mov(cpu.RDI, cpu.R13)
	t.CallSym("exit_group")

	emitBank(t, bank)
	emitParse(t, ".parse")
	emitWorkLoop(t, ".work", workIters)
	emitBody(t, ".body0k", Resp0K)
	emitBody(t, ".body4k", Resp4K)
	return b.MustBuild()
}

// buildNginx builds the nginx-like worker (Table 2: 43 unique sites).
func buildNginx() *image.Image { return buildHTTPServer(NginxPath, nginxBank, nginxWorkIters) }

// buildLighttpd builds the lighttpd-like worker (Table 2: 44 unique sites).
func buildLighttpd() *image.Image {
	return buildHTTPServer(LighttpdPath, lighttpdBank, lighttpdWorkIters)
}

// buildRedis builds the redis-like server (Table 2: 92 unique sites).
//
// Modes (argv[1]):
//
//	"1"    single-threaded: read, parse, execute, write per GET.
//	"io"   I/O-thread component: read, light parse, write per GET.
//	"main" main-thread component: RedisMainIters x (8 futex wakeups to
//	       the I/O threads + command execution) with no network — the
//	       serial bottleneck of the 6-I/O-thread configuration.
func buildRedis() *image.Image {
	b := asm.NewBuilder(RedisPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".reqbuf").Space(RequestSize + 64)
	d.Label(".respbuf").Space(256)
	t := b.Text()

	t.Label("_start")
	t.Load(cpu.R14, cpu.RSI, 8) // argv[1]
	t.LoadB(cpu.R14, cpu.R14, 0)
	t.Call(".bank_exercise")
	t.CmpImm(cpu.R14, 'm')
	t.Jz(".main_mode")

	emitServerSetup(t)
	t.Xor(cpu.R13, cpu.R13)
	t.Label(".serve")
	t.Mov(cpu.RDI, cpu.R9)
	t.CallSym("epoll_wait")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".reqbuf")
	t.MovImm32(cpu.RDX, RequestSize)
	t.CallSym("read")
	t.Test(cpu.RAX, cpu.RAX)
	t.Jz(".finish")
	t.MovImmSym(cpu.RSI, ".reqbuf")
	t.Call(".parse")
	// Full mode additionally executes the command.
	t.CmpImm(cpu.R14, '1')
	t.Jnz(".reply")
	t.Call(".exec")
	t.Jmp(".reply")
	t.Label(".reply")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".respbuf")
	t.MovImm32(cpu.RDX, 64)
	t.CallSym("write")
	t.AddImm(cpu.R13, 1)
	t.Jmp(".serve")

	t.Label(".finish")
	t.Mov(cpu.RDI, cpu.R13)
	t.CallSym("exit_group")

	// Main-thread component: per "request": 5 futex wakeups to the I/O
	// threads plus command execution.
	t.Label(".main_mode")
	t.MovImm32(cpu.R13, RedisMainIters)
	t.Label(".main_loop")
	for i := 0; i < 8; i++ {
		t.MovImm32(cpu.RDI, 1)
		t.CallSym("futex")
	}
	t.Call(".exec")
	t.AddImm(cpu.R13, -1)
	t.Jnz(".main_loop")
	exitWith(t, 0)

	emitBank(t, redisBank)
	emitParse(t, ".parse")
	emitWorkLoop(t, ".exec", redisExecIters)
	emitWorkLoop(t, ".iowork", redisIOIters)
	return b.MustBuild()
}

// buildSqlite builds the sqlite-like binary running a speedtest1-style
// workload (Table 2: 20 unique sites): SqliteOps operations, each a
// compute step plus a WAL append, with a periodic fstat checkpoint probe.
func buildSqlite() *image.Image {
	b := asm.NewBuilder(SqlitePath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	d.Label(".walrec").Space(64)
	ro := b.Rodata()
	ro.Label(".walpath").CString("/var/db/speedtest1.db-wal")
	t := b.Text()

	t.Label("_start")
	// argv[1] = operation count (decimal); the speedtest1 -size knob.
	t.Load(cpu.R8, cpu.RSI, 8)
	t.Xor(cpu.R13, cpu.R13)
	t.Test(cpu.R8, cpu.R8)
	t.Jz(".default_ops")
	t.Label(".ops_parse")
	t.LoadB(cpu.RCX, cpu.R8, 0)
	t.Test(cpu.RCX, cpu.RCX)
	t.Jz(".ops_done")
	t.MovImm32(cpu.R11, 10)
	t.Mul(cpu.R13, cpu.R11)
	t.AddImm(cpu.RCX, -'0')
	t.Add(cpu.R13, cpu.RCX)
	t.AddImm(cpu.R8, 1)
	t.Jmp(".ops_parse")
	t.Label(".default_ops")
	t.MovImm32(cpu.R13, SqliteOps)
	t.Label(".ops_done")
	t.Call(".bank_exercise")
	// open the WAL (O_CREAT|O_WRONLY|O_APPEND).
	t.MovImmSym(cpu.RDI, ".walpath")
	t.MovImm32(cpu.RSI, kernel.OCreat|kernel.OWronly|kernel.OAppend)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	t.Mov(cpu.RBX, cpu.R13) // remember ops for the WAL-size check

	t.Label(".op")
	t.Call(".work") // the SQL work (synchronous=NORMAL, no checkpoint)
	// WAL append.
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".walrec")
	t.MovImm32(cpu.RDX, 64)
	t.CallSym("write")
	// Every 16th op, probe the WAL size.
	t.Mov(cpu.RCX, cpu.R13)
	t.MovImm32(cpu.R11, 15)
	t.And(cpu.RCX, cpu.R11)
	t.Jnz(".next")
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	t.Label(".next")
	t.AddImm(cpu.R13, -1)
	t.Jnz(".op")

	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("close")
	exitWith(t, 0)

	emitBank(t, sqliteBank)
	emitWorkLoop(t, ".work", sqliteOpIters)
	return b.MustBuild()
}
