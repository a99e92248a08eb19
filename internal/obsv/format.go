package obsv

import (
	"fmt"
	"io"
	"strings"

	"k23/internal/canon"
	"k23/internal/kernel"
	"k23/internal/probe"
)

// Kind names the flight-recorder trace artifact (canon envelope): per
// machine, a "ring" record declaring the ring's loss, then that
// machine's retained records oldest first.
//
//	{"t":"ring","m":"m-03","dropped":12}
//	{"t":"event","seq":12,"clock":40,...}
const Kind = "trace"

// ringRec opens one machine's section. A record's seq is its emit
// ordinal, monotonic from zero, so the first retained record's seq IS
// the number of events the ring overwrote; Dropped makes that loss
// explicit instead of leaving readers to infer it.
type ringRec struct {
	Machine string `json:"m,omitempty"`
	Dropped uint64 `json:"dropped"`
}

// jsonRecord is the schema for one flight-recorder record. Field
// presence per kind is validated by ValidateJSONL (schema.go).
type jsonRecord struct {
	Seq    uint64   `json:"seq"`
	Clock  uint64   `json:"clock"`
	PID    int      `json:"pid"`
	TID    int      `json:"tid"`
	Kind   string   `json:"kind"`
	Num    uint64   `json:"num"`
	Name   string   `json:"name,omitempty"`
	Site   uint64   `json:"site,omitempty"`
	Ret    *int64   `json:"ret,omitempty"`
	Args   []uint64 `json:"args,omitempty"`
	Detail string   `json:"detail,omitempty"`
}

// Ring is one machine's retained flight-recorder window; Machine is
// empty for a single-machine trace.
type Ring struct {
	Machine string
	Recs    []*probe.Emit
}

// WriteJSONL writes the rings as one trace artifact, one section per
// ring — the machine-readable trace format consumed by cmd/obsvcheck.
func WriteJSONL(w io.Writer, rings ...Ring) error {
	cw := canon.NewWriter(w, Kind, 1)
	for _, ring := range rings {
		hdr := ringRec{Machine: ring.Machine}
		if len(ring.Recs) > 0 {
			hdr.Dropped = ring.Recs[0].Ord
		}
		cw.Record("ring", &hdr)
		for _, r := range ring.Recs {
			jr := jsonRecord{
				Seq:    r.Ord,
				Clock:  r.Clock,
				PID:    r.PID,
				TID:    r.TID,
				Kind:   r.Kind,
				Num:    r.Num,
				Site:   r.Site,
				Detail: r.Detail,
			}
			switch kindOf(r) {
			case kernel.EvEnter:
				jr.Name = kernel.SyscallName(r.Num)
				jr.Args = r.Args[:]
			case kernel.EvExit, kernel.EvFork, kernel.EvOracle, kernel.EvResolve:
				jr.Name = kernel.SyscallName(r.Num)
				jr.Ret = &r.Ret
			}
			cw.Record("event", &jr)
		}
	}
	return cw.Close()
}

// kindOf returns the kernel event kind a trace record names.
func kindOf(r *probe.Emit) kernel.EventKind {
	k, _ := kernel.EventKindByName(r.Kind)
	return k
}

// FormatRecord renders one record as a strace-flavored line. Exit
// records carry the full call (the paired enter's arguments arrive via
// args; pass nil when unknown).
func FormatRecord(r *probe.Emit, enterArgs []uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%12d] %d/%d  ", r.Clock, r.PID, r.TID)
	ret := uint64(r.Ret)
	switch kindOf(r) {
	case kernel.EvEnter:
		fmt.Fprintf(&b, "%s(%s) ...", kernel.SyscallName(r.Num), formatArgs(r.Num, r.Args[:]))
	case kernel.EvExit:
		fmt.Fprintf(&b, "%s(%s) = %s", kernel.SyscallName(r.Num), formatArgs(r.Num, enterArgs), formatRet(ret))
		if r.Detail != "" {
			fmt.Fprintf(&b, " <%s>", r.Detail)
		}
	case kernel.EvSignal:
		fmt.Fprintf(&b, "--- %s {site=%#x} ---", signalName(int(r.Num)), r.Site)
	case kernel.EvSudSigsys:
		fmt.Fprintf(&b, "--- SIGSYS (syscall user dispatch) {nr=%s, site=%#x} ---", kernel.SyscallName(r.Num), r.Site)
	case kernel.EvSeccompSigsys:
		fmt.Fprintf(&b, "--- SIGSYS (seccomp trap) {nr=%s, site=%#x} ---", kernel.SyscallName(r.Num), r.Site)
	case kernel.EvFork:
		fmt.Fprintf(&b, "%s() = %d (child)", kernel.SyscallName(r.Num), r.Ret)
	case kernel.EvExec:
		fmt.Fprintf(&b, "execve(%s)", r.Detail)
	case kernel.EvExitProc:
		fmt.Fprintf(&b, "+++ %s +++", r.Detail)
	case kernel.EvInterposed:
		fmt.Fprintf(&b, "~~~ %s interposed %s {site=%#x} ~~~", r.Detail, kernel.SyscallName(r.Num), r.Site)
	case kernel.EvChaos:
		fmt.Fprintf(&b, "!!! chaos %s on %s {site=%#x} !!!", r.Detail, kernel.SyscallName(r.Num), r.Site)
	case kernel.EvOracle:
		fmt.Fprintf(&b, "=== oracle %s = %s {site=%#x, origin=%s} ===", kernel.SyscallName(r.Num), formatRet(ret), r.Site, r.Detail)
	case kernel.EvResolve:
		verb := "renumbered"
		if r.Ret == 1 {
			verb = "emulated"
		}
		fmt.Fprintf(&b, "~~~ %s %s %s {site=%#x} ~~~", r.Detail, verb, kernel.SyscallName(r.Num), r.Site)
	case kernel.EvVdso:
		fmt.Fprintf(&b, "vdso %s", r.Detail)
	case kernel.EvRewrite:
		fmt.Fprintf(&b, "rewrite {site=%#x} %s", r.Site, r.Detail)
	case kernel.EvGuardMem:
		fmt.Fprintf(&b, "guard-mem %s reserved=%d resident=%d", r.Detail, r.Args[0], r.Args[1])
	case kernel.EvStaleFetch:
		fmt.Fprintf(&b, "!!! %d stale instruction fetch(es) !!!", r.Num)
	case kernel.EvUnknownSyscall:
		fmt.Fprintf(&b, "??? %s = ENOSYS {site=%#x} <%s> ???", kernel.SyscallName(r.Num), r.Site, r.Detail)
	case kernel.EvSfipViolation:
		fmt.Fprintf(&b, "### sfip violation %s {site=%#x} <%s> ###", kernel.SyscallName(r.Num), r.Site, r.Detail)
	default:
		fmt.Fprintf(&b, "%s num=%d site=%#x %s", r.Kind, r.Num, r.Site, r.Detail)
	}
	return b.String()
}

// WriteStrace renders the records as strace-compatible text: enters and
// exits are folded into single call lines where both are present in the
// window (an enter whose exit was dropped by wraparound still prints).
func WriteStrace(w io.Writer, recs []*probe.Emit) error {
	// The pending enter per TID, so the exit line shows the call.
	pending := make(map[int]*probe.Emit)
	for _, r := range recs {
		var args []uint64
		switch kindOf(r) {
		case kernel.EvEnter:
			pending[r.TID] = r
			continue // folded into the exit line
		case kernel.EvExit:
			if enter := pending[r.TID]; enter != nil {
				args = enter.Args[:]
				delete(pending, r.TID)
			}
		}
		if _, err := fmt.Fprintln(w, FormatRecord(r, args)); err != nil {
			return err
		}
	}
	// Enters whose exit never arrived (in-flight at dump time or the
	// exit was beyond the window): print them un-folded, in trace order.
	for _, r := range recs {
		if pending[r.TID] == r {
			if _, err := fmt.Fprintln(w, FormatRecord(r, nil)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatArgs(nr uint64, args []uint64) string {
	// The guest leaves stale values in unused argument registers, so
	// render exactly the syscall's arity when it is known and fall back
	// to trailing-zero elision otherwise.
	n := len(args)
	if arity, ok := kernel.SyscallArity(nr); ok && arity <= n {
		n = arity
	} else {
		for n > 0 && args[n-1] == 0 {
			n--
		}
	}
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, fmt.Sprintf("%#x", args[i]))
	}
	return strings.Join(parts, ", ")
}

func formatRet(ret uint64) string {
	if errno, ok := kernel.IsErr(ret); ok {
		return fmt.Sprintf("-1 %s", kernel.ErrnoName(errno))
	}
	if int64(ret) < 0 {
		return fmt.Sprintf("%#x", ret)
	}
	return fmt.Sprintf("%d", int64(ret))
}

// signalName returns the conventional name for the signals the
// simulation delivers.
func signalName(sig int) string {
	switch sig {
	case kernel.SIGILL:
		return "SIGILL"
	case kernel.SIGTRAP:
		return "SIGTRAP"
	case kernel.SIGKILL:
		return "SIGKILL"
	case kernel.SIGSEGV:
		return "SIGSEGV"
	case kernel.SIGSYS:
		return "SIGSYS"
	}
	return fmt.Sprintf("SIG%d", sig)
}

// interesting reports whether a record is a likely fault trigger worth
// centering an excerpt on.
func interesting(r *probe.Emit) bool {
	switch kindOf(r) {
	case kernel.EvSignal, kernel.EvSudSigsys, kernel.EvSeccompSigsys, kernel.EvExitProc:
		return true
	}
	return false
}

// Excerpt returns a window of context records around the last
// "interesting" event (signal delivery, SIGSYS, process death) —
// the flight-recorder view pitfalls -explain prints under each PoC.
// If nothing interesting is retained, the tail of the trace is
// returned. context is the number of records kept on each side.
func Excerpt(recs []*probe.Emit, context int) []*probe.Emit {
	if len(recs) == 0 {
		return nil
	}
	center := -1
	for i := len(recs) - 1; i >= 0; i-- {
		if interesting(recs[i]) {
			center = i
			break
		}
	}
	if center < 0 {
		center = len(recs) - 1
	}
	lo := center - context
	if lo < 0 {
		lo = 0
	}
	hi := center + context + 1
	if hi > len(recs) {
		hi = len(recs)
	}
	return recs[lo:hi]
}
