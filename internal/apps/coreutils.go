// Package apps builds the evaluation workloads of the paper on the
// simulated platform: five coreutils (pwd, touch, ls, cat, clear) and
// four server/database applications (nginx-, lighttpd-, redis- and
// sqlite-like), each constructed so its *unique executed syscall-site*
// profile matches Table 2 and its per-request syscall/compute mix drives
// the Table 6 macrobenchmarks.
package apps

import (
	"fmt"
	"strings"
	"sync"

	"k23/internal/asm"
	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/libc"
	"k23/internal/vfs"
)

// Binary paths.
const (
	PwdPath      = "/usr/bin/pwd"
	TouchPath    = "/usr/bin/touch"
	LsPath       = "/usr/bin/ls"
	CatPath      = "/usr/bin/cat"
	ClearPath    = "/usr/bin/clear"
	NginxPath    = "/usr/sbin/nginx"
	LighttpdPath = "/usr/sbin/lighttpd"
	RedisPath    = "/usr/bin/redis-server"
	SqlitePath   = "/usr/bin/sqlite3"
)

// Auxiliary library paths ls links against (as the real ls does), each
// with a constructor performing its own startup syscalls — all of which
// run before any LD_PRELOAD interposer initializes.
var LsDeps = []string{
	"/usr/lib/libselinux.so.1",
	"/usr/lib/libcap.so.2",
	"/usr/lib/libpcre2-8.so.0",
	"/usr/lib/libacl.so.1",
}

// auxLibConfigs maps each ls dependency to the config file its
// constructor probes.
var auxLibConfigs = map[string]string{
	"/usr/lib/libselinux.so.1": "/etc/selinux/config",
	"/usr/lib/libcap.so.2":     "/etc/capability.conf",
	"/usr/lib/libpcre2-8.so.0": "/etc/pcre2.cfg",
	"/usr/lib/libacl.so.1":     "/etc/acl.conf",
}

// buildAuxLib assembles a small shared library whose constructor performs
// glibc-dependency-style startup work: probe a config file, map a cache,
// query identity.
func buildAuxLib(path, config string) *image.Image {
	b := asm.NewBuilder(path)
	b.Needed(libc.Path)
	ro := b.Rodata()
	ro.Label(".cfg").CString(config)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	t := b.Text()
	initName := "init_" + path[strings.LastIndexByte(path, '/')+1:]
	t.Label(initName)
	t.Push(cpu.RBX)
	t.MovImmSym(cpu.RDI, ".cfg")
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("access")
	t.MovImmSym(cpu.RDI, ".cfg")
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("open")
	t.Mov(cpu.RBX, cpu.RAX)
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, kernel.ProtRead)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.RDI, cpu.RBX)
	t.CallSym("close")
	t.CallSym("getuid")
	t.Pop(cpu.RBX)
	t.Ret()
	b.Init(initName)
	return b.MustBuild()
}

// images is every workload binary, ls's auxiliary libraries first,
// assembled once per process: images are immutable, so every registry
// shares them.
var images = sync.OnceValue(func() []*image.Image {
	var out []*image.Image
	for _, dep := range LsDeps {
		out = append(out, buildAuxLib(dep, auxLibConfigs[dep]))
	}
	return append(out, buildPwd(), buildTouch(), buildLs(), buildCat(), buildClear(), buildNginx(), buildLighttpd(), buildRedis(), buildSqlite())
})

// RegisterAll adds every workload binary to the registry.
func RegisterAll(reg *image.Registry) {
	for _, im := range images() {
		reg.MustAdd(im)
	}
}

// SetupFS creates the files the workloads touch.
func SetupFS(fs *vfs.FS) error {
	files := map[string]string{
		"/etc/motd":           "Welcome to SimLinux.\n",
		"/etc/terminfo/x":     "xterm-sim capabilities",
		"/data/notes.txt":     "The quick brown fox jumps over the lazy dog.\n",
		"/var/www/index.html": "<html><body>hello</body></html>\n",
	}
	for p, content := range files {
		if err := fs.WriteFile(p, []byte(content), vfs.ModeRW); err != nil {
			return fmt.Errorf("apps: setup %s: %w", p, err)
		}
	}
	return fs.MkdirAll("/var/db")
}

// programs maps each workload's command name to its binary path.
var programs = map[string]string{
	"pwd": PwdPath, "touch": TouchPath, "ls": LsPath,
	"cat": CatPath, "clear": ClearPath, "nginx": NginxPath,
	"lighttpd": LighttpdPath, "redis-server": RedisPath,
	"sqlite3": SqlitePath,
}

// defaultArg is the argument a bare program gets.
var defaultArg = map[string]string{
	TouchPath: "/data/new.txt", LsPath: "/data", CatPath: "/data/notes.txt",
	NginxPath: "0", LighttpdPath: "0", RedisPath: "1",
}

// Command resolves a command line: args[0] is a workload's command name
// (pwd, touch, ls, cat, clear, nginx, lighttpd, redis-server, sqlite3)
// or an absolute path, and a bare program gets workable arguments. ok
// is false for an unknown name.
func Command(args []string) (path string, argv []string, ok bool) {
	path, argv = args[0], args
	if !strings.HasPrefix(path, "/") {
		if path, ok = programs[path]; !ok {
			return "", nil, false
		}
	}
	if a, found := defaultArg[path]; found && len(argv) == 1 {
		argv = []string{argv[0], a}
	}
	return path, argv, true
}

// IsServer reports whether path is a server workload, driven by an
// injected client connection.
func IsServer(path string) bool {
	return path == NginxPath || path == LighttpdPath || path == RedisPath
}

// exitWith emits exit_group(code).
func exitWith(t *asm.SectionBuilder, code uint32) {
	t.MovImm32(cpu.RDI, code)
	t.CallSym("exit_group")
}

// buildPwd builds the pwd coreutil: 7 unique syscall sites during a run
// (Table 2).
func buildPwd() *image.Image {
	b := asm.NewBuilder(PwdPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".buf").Space(256)
	d.Label(".statbuf").Space(160)
	t := b.Text()
	t.Label("_start")
	// getcwd(buf, 256)                                    site 1
	t.MovImmSym(cpu.RDI, ".buf")
	t.MovImm32(cpu.RSI, 256)
	t.CallSym("getcwd")
	t.Mov(cpu.RBX, cpu.RAX) // length incl. NUL
	// ioctl(1, TCGETS) — isatty probe                     site 2
	t.MovImm32(cpu.RDI, 1)
	t.MovImm32(cpu.RSI, 0x5401)
	t.CallSym("ioctl")
	// fstat(1, statbuf)                                   site 3
	t.MovImm32(cpu.RDI, 1)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	// write(1, buf, len)                                  site 4
	t.MovImm32(cpu.RDI, 1)
	t.MovImmSym(cpu.RSI, ".buf")
	t.Mov(cpu.RDX, cpu.RBX)
	t.CallSym("write")
	// access("/", F_OK)                                   site 5
	t.MovImmSym(cpu.RDI, ".buf")
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("access")
	// close(1)                                            site 6
	t.MovImm32(cpu.RDI, 1)
	t.CallSym("close")
	// exit_group                                          site 7
	exitWith(t, 0)
	return b.MustBuild()
}

// buildTouch builds the touch coreutil: 9 unique sites. Usage: touch FILE.
func buildTouch() *image.Image {
	b := asm.NewBuilder(TouchPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	t := b.Text()
	t.Label("_start")
	// argv[1] -> RBX
	t.Load(cpu.RBX, cpu.RSI, 8)
	// access(file)                                        site 1
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("access")
	// open(file, O_CREAT|O_WRONLY)                        site 2
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, kernel.OCreat|kernel.OWronly)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	// fstat(fd)                                           site 3
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	// chmod(file, 0644) — timestamp-update stand-in       site 4
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 0o6)
	t.CallSym("chmod")
	// stat(file)                                          site 5
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("stat")
	// ioctl                                               site 6
	t.MovImm32(cpu.RDI, 1)
	t.MovImm32(cpu.RSI, 0x5401)
	t.CallSym("ioctl")
	// write(1, file, 1) — diagnostics                     site 7
	t.MovImm32(cpu.RDI, 1)
	t.Mov(cpu.RSI, cpu.RBX)
	t.MovImm32(cpu.RDX, 1)
	t.CallSym("write")
	// close(fd)                                           site 8
	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("close")
	// exit_group                                          site 9
	exitWith(t, 0)
	return b.MustBuild()
}

// buildLs builds the ls coreutil: 10 unique sites. Usage: ls DIR.
func buildLs() *image.Image {
	b := asm.NewBuilder(LsPath)
	b.Needed(libc.Path)
	b.Needed(LsDeps...)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	d.Label(".buf").Space(512)
	ro := b.Rodata()
	ro.Label(".listing").CString("total 0\n")
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.RBX, cpu.RSI, 8) // argv[1]
	// stat(dir)                                           site 1
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("stat")
	// open(dir)                                           site 2
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	// fstat(fd)                                           site 3
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	// mmap scratch (dirent buffer)                        site 4
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.R15, cpu.RAX)
	// read(fd) — getdents stand-in                        site 5
	t.Mov(cpu.RDI, cpu.RBP)
	t.Mov(cpu.RSI, cpu.R15)
	t.MovImm32(cpu.RDX, 4096)
	t.CallSym("read")
	// ioctl(1) — column width probe                       site 6
	t.MovImm32(cpu.RDI, 1)
	t.MovImm32(cpu.RSI, 0x5413)
	t.CallSym("ioctl")
	// write(1, listing, 8)                                site 7
	t.MovImm32(cpu.RDI, 1)
	t.MovImmSym(cpu.RSI, ".listing")
	t.MovImm32(cpu.RDX, 8)
	t.CallSym("write")
	// munmap                                              site 8
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 4096)
	t.CallSym("munmap")
	// close                                               site 9
	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("close")
	// exit_group                                          site 10
	exitWith(t, 0)
	return b.MustBuild()
}

// buildCat builds the cat coreutil: 11 unique sites. Usage: cat FILE.
func buildCat() *image.Image {
	b := asm.NewBuilder(CatPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	t := b.Text()
	t.Label("_start")
	t.Load(cpu.RBX, cpu.RSI, 8) // argv[1]
	// access(file)                                        site 1
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("access")
	// open(file)                                          site 2
	t.Mov(cpu.RDI, cpu.RBX)
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	// fstat(fd)                                           site 3
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	// mmap io buffer                                      site 4
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.R15, cpu.RAX)
	// madvise(buf)                                        site 5
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, 3)
	t.CallSym("madvise")
	// copy loop: read(fd) site 6 / write(1) site 7
	t.Label(".copy")
	t.Mov(cpu.RDI, cpu.RBP)
	t.Mov(cpu.RSI, cpu.R15)
	t.MovImm32(cpu.RDX, 4096)
	t.CallSym("read")
	t.Test(cpu.RAX, cpu.RAX)
	t.Jle(".done") // end of file, or an error
	t.Mov(cpu.RDX, cpu.RAX)
	t.MovImm32(cpu.RDI, 1)
	t.Mov(cpu.RSI, cpu.R15)
	t.CallSym("write")
	t.Jmp(".copy")
	t.Label(".done")
	// ioctl(1)                                            site 8
	t.MovImm32(cpu.RDI, 1)
	t.MovImm32(cpu.RSI, 0x5401)
	t.CallSym("ioctl")
	// munmap                                              site 9
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 4096)
	t.CallSym("munmap")
	// close                                               site 10
	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("close")
	// exit_group                                          site 11
	exitWith(t, 0)
	return b.MustBuild()
}

// buildClear builds the clear coreutil: 13 unique sites.
func buildClear() *image.Image {
	b := asm.NewBuilder(ClearPath)
	b.Needed(libc.Path)
	d := b.Data()
	d.Label(".statbuf").Space(160)
	ro := b.Rodata()
	ro.Label(".terminfo").CString("/etc/terminfo/x")
	ro.Label(".escape").CString("\x1b[H\x1b[2J")
	t := b.Text()
	t.Label("_start")
	// getpid — terminfo cache key                         site 1
	t.CallSym("getpid")
	// ioctl(1) — terminal probe                           site 2
	t.MovImm32(cpu.RDI, 1)
	t.MovImm32(cpu.RSI, 0x5401)
	t.CallSym("ioctl")
	// access(terminfo)                                    site 3
	t.MovImmSym(cpu.RDI, ".terminfo")
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("access")
	// stat(terminfo)                                      site 4
	t.MovImmSym(cpu.RDI, ".terminfo")
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("stat")
	// open(terminfo)                                      site 5
	t.MovImmSym(cpu.RDI, ".terminfo")
	t.MovImm32(cpu.RSI, 0)
	t.CallSym("open")
	t.Mov(cpu.RBP, cpu.RAX)
	// fstat(fd)                                           site 6
	t.Mov(cpu.RDI, cpu.RBP)
	t.MovImmSym(cpu.RSI, ".statbuf")
	t.CallSym("fstat")
	// mmap terminfo db                                    site 7
	t.MovImm32(cpu.RDI, 0)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, kernel.ProtRead|kernel.ProtWrite)
	t.MovImm32(cpu.R10, 0)
	t.CallSym("mmap")
	t.Mov(cpu.R15, cpu.RAX)
	// read(fd)                                            site 8
	t.Mov(cpu.RDI, cpu.RBP)
	t.Mov(cpu.RSI, cpu.R15)
	t.MovImm32(cpu.RDX, 4096)
	t.CallSym("read")
	// madvise                                             site 9
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 4096)
	t.MovImm32(cpu.RDX, 4)
	t.CallSym("madvise")
	// write(1, escape, 7)                                 site 10
	t.MovImm32(cpu.RDI, 1)
	t.MovImmSym(cpu.RSI, ".escape")
	t.MovImm32(cpu.RDX, 7)
	t.CallSym("write")
	// munmap                                              site 11
	t.Mov(cpu.RDI, cpu.R15)
	t.MovImm32(cpu.RSI, 4096)
	t.CallSym("munmap")
	// close(fd)                                           site 12
	t.Mov(cpu.RDI, cpu.RBP)
	t.CallSym("close")
	// exit_group                                          site 13
	exitWith(t, 0)
	return b.MustBuild()
}
