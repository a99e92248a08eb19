// Package core implements K23, the paper's contribution: a hybrid
// plug-and-play system call interposer combining an offline profiling
// phase (libLogger over SUD) with an online phase that stacks three
// mechanisms — a ptracer from the first instruction, a single selective
// zpoline-style rewrite of offline-validated sites, and an SUD fallback —
// so that every system call is interposed (P2), nothing is corrupted
// (P3, P5), injection cannot be silently bypassed (P1), and trampoline
// entries are validated by a small hash set rather than an address-space
// bitmap (P4).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/loader"
	"k23/internal/sud"
)

// LogEntry is one offline-phase observation: a syscall instruction at a
// stable (region, offset) pair. Offsets within a region are invariant
// under ASLR, so online runs can map them back to virtual addresses
// (paper §5.1, Figure 3).
type LogEntry struct {
	Region string
	Offset uint64
}

func (e LogEntry) String() string {
	return fmt.Sprintf("%s,%d", e.Region, e.Offset)
}

// FormatLog renders entries in the Figure 3 log format, sorted for
// determinism.
func FormatLog(entries []LogEntry) []byte {
	sorted := append([]LogEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Region != sorted[j].Region {
			return sorted[i].Region < sorted[j].Region
		}
		return sorted[i].Offset < sorted[j].Offset
	})
	var b strings.Builder
	for _, e := range sorted {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ParseLog parses the Figure 3 log format.
func ParseLog(data []byte) ([]LogEntry, error) {
	var out []LogEntry
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ',')
		if i < 0 {
			return nil, fmt.Errorf("core: log line %d: missing comma: %q", ln+1, line)
		}
		off, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: log line %d: bad offset: %w", ln+1, err)
		}
		out = append(out, LogEntry{Region: line[:i], Offset: off})
	}
	return out, nil
}

// Offline runs K23's offline phase: the target executes under libLogger
// (an SUD-based interposer) in a controlled environment; every executed
// syscall instruction in an executable, non-writable, file-backed region
// is recorded as a (region, offset) pair.
type Offline struct {
	// LogDir is where per-program logs are written (and sealed
	// immutable after Finish, §5.3).
	LogDir string
	// Engine selects the exhaustive interposition mechanism backing
	// libLogger: "" or "sud" (default), or "seccomp" (the alternative
	// the paper names in §5.1; performance is not a concern offline).
	Engine string
}

// OfflineRun is one in-progress offline execution.
type OfflineRun struct {
	o       *Offline
	w       *interpose.World
	proc    *kernel.Process
	name    string
	sud     *sud.SUD
	entries map[LogEntry]bool
	// regions caches the parsed /proc/<pid>/maps view.
	regions []mapsRegion
}

type mapsRegion struct {
	start, end uint64
	perms      string
	name       string
}

// LogPath returns the log file path for a program name.
func (o *Offline) LogPath(progName string) string {
	return o.LogDir + "/" + progName + ".log"
}

// Start launches the target under libLogger. The caller drives the
// process (injecting workload as needed) and then calls Finish.
//
// A guard tracer re-injects LD_PRELOAD across execve so libLogger cannot
// be silently dropped in child program images — coverage maximization,
// not security enforcement (§5.3).
func (o *Offline) Start(w *interpose.World, path string, argv, env []string) (*OfflineRun, error) {
	name := path[strings.LastIndexByte(path, '/')+1:]
	r := &OfflineRun{o: o, w: w, name: name, entries: make(map[LogEntry]bool)}
	cfg := interpose.Config{
		Hook: func(c *interpose.Call) (uint64, bool) {
			r.record(c)
			return 0, false
		},
	}
	switch o.Engine {
	case "", "sud":
		r.sud = sud.New(cfg)
	case "seccomp":
		r.sud = sud.NewSeccompTrap(cfg)
	default:
		return nil, fmt.Errorf("core: unknown offline engine %q", o.Engine)
	}
	guard := &preloadGuard{libPath: r.sud.LibraryPath()}
	p, err := r.sud.LaunchWith(w, path, argv, env, loader.WithTracer(guard))
	if err != nil {
		return nil, err
	}
	r.proc = p
	return r, nil
}

// Process returns the profiled process.
func (r *OfflineRun) Process() *kernel.Process { return r.proc }

// record notes the (region, offset) of a trapped syscall site, parsing
// /proc/<pid>/maps exactly as the real libLogger does.
func (r *OfflineRun) record(c *interpose.Call) {
	reg, ok := r.lookupRegion(c.Site)
	if !ok {
		// Refresh the maps snapshot (dlopen may have mapped new code).
		r.loadMaps()
		if reg, ok = r.lookupRegion(c.Site); !ok {
			return
		}
	}
	// Only expected code: executable, non-writable, file-backed
	// regions. Dynamically generated code is deliberately not logged —
	// it may not exist during the online phase's single rewriting step
	// (§5.1). The dynamic linker is excluded too: its sites run before
	// libK23 loads (ptracer territory), and rewriting them would bounce
	// the interposer's own gate calls through the trampoline.
	if !strings.HasPrefix(reg.name, "/") || reg.name == loader.LdsoPath {
		return
	}
	if !strings.Contains(reg.perms, "x") || strings.Contains(reg.perms, "w") {
		return
	}
	base := r.regionBase(reg.name)
	r.entries[LogEntry{Region: reg.name, Offset: c.Site - base}] = true
}

func (r *OfflineRun) lookupRegion(addr uint64) (mapsRegion, bool) {
	for _, reg := range r.regions {
		if addr >= reg.start && addr < reg.end {
			return reg, true
		}
	}
	return mapsRegion{}, false
}

// regionBase returns the lowest mapped address of the named file — the
// load base the offsets are relative to.
func (r *OfflineRun) regionBase(name string) uint64 {
	base := ^uint64(0)
	for _, reg := range r.regions {
		if reg.name == name && reg.start < base {
			base = reg.start
		}
	}
	return base
}

// loadMaps re-reads and parses the process's /proc/<pid>/maps.
func (r *OfflineRun) loadMaps() {
	data, err := r.w.K.FS.ReadFile(fmt.Sprintf("/proc/%d/maps", r.proc.PID))
	if err != nil {
		return
	}
	r.regions = r.regions[:0]
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		start, end, perms, name, err := kernel.ParseMapsLine(line)
		if err != nil {
			continue
		}
		r.regions = append(r.regions, mapsRegion{start: start, end: end, perms: perms, name: name})
	}
}

// Entries returns the unique observations so far.
func (r *OfflineRun) Entries() []LogEntry {
	out := make([]LogEntry, 0, len(r.entries))
	for e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Region != out[j].Region {
			return out[i].Region < out[j].Region
		}
		return out[i].Offset < out[j].Offset
	})
	return out
}

// Finish merges this run's observations into the program's log file and
// seals the log directory immutable (the §5.3 hardening; repeat runs
// briefly unseal, merge, and re-seal).
func (r *OfflineRun) Finish() (int, error) {
	fs := r.w.K.FS
	logPath := r.o.LogPath(r.name)

	if fs.IsImmutable(r.o.LogDir) {
		if err := fs.SetImmutable(r.o.LogDir, false); err != nil {
			return 0, err
		}
	}
	merged := make(map[LogEntry]bool, len(r.entries))
	if old, err := fs.ReadFile(logPath); err == nil {
		prev, err := ParseLog(old)
		if err != nil {
			return 0, fmt.Errorf("core: corrupt existing log %s: %w", logPath, err)
		}
		for _, e := range prev {
			merged[e] = true
		}
	}
	for e := range r.entries {
		merged[e] = true
	}
	all := make([]LogEntry, 0, len(merged))
	for e := range merged {
		all = append(all, e)
	}
	if err := fs.MkdirAll(r.o.LogDir); err != nil {
		return 0, err
	}
	if err := fs.WriteFile(logPath, FormatLog(all), 0o6); err != nil {
		return 0, err
	}
	if err := fs.SetImmutable(r.o.LogDir, true); err != nil {
		return 0, err
	}
	return len(all), nil
}

// preloadGuard is the minimal ptracer-like component that keeps
// libLogger injected across execve during the offline phase. It records
// nothing.
type preloadGuard struct {
	libPath string
}

var _ kernel.Tracer = (*preloadGuard)(nil)

func (g *preloadGuard) SyscallEnter(k *kernel.Kernel, t *kernel.Thread, nr, site uint64) bool {
	return false
}

func (g *preloadGuard) Execve(k *kernel.Kernel, t *kernel.Thread, path string, argv, env []string) []string {
	if cur, ok := kernel.GetEnv(env, loader.LdPreloadVar); ok && strings.Contains(cur, g.libPath) {
		return nil
	}
	return kernel.SetEnv(append([]string(nil), env...), loader.LdPreloadVar, g.libPath)
}
