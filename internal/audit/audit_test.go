package audit

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// feed pushes a synthetic event stream through a fresh Auditor.
func feed(events []kernel.Event) *Auditor {
	a := New(nil)
	for i := range events {
		a.Handle(&events[i])
	}
	return a
}

func claimEv(pid, tid int, nr, site uint64, mech string, clock uint64) kernel.Event {
	return kernel.Event{Kind: kernel.EvInterposed, PID: pid, TID: tid, Num: nr, Site: site, Detail: mech, Clock: clock}
}

func oracleEv(pid, tid int, nr uint64, origin string, clock uint64) kernel.Event {
	return kernel.Event{Kind: kernel.EvOracle, PID: pid, TID: tid, Num: nr, Detail: origin, Clock: clock}
}

func TestJoinCoversClaimedCalls(t *testing.T) {
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 10),
		oracleEv(1, 1, kernel.SysWrite, "trap", 20),
		claimEv(1, 1, kernel.SysGetpid, 0x108, "rewrite", 30),
		oracleEv(1, 1, kernel.SysGetpid, "trap", 40),
	})
	s := a.Snapshot()
	if s.Totals.Covered != 2 || s.Totals.Escaped != 0 || s.Totals.Unresolved != 0 {
		t.Fatalf("covered=%d escaped=%d unresolved=%d, want 2/0/0",
			s.Totals.Covered, s.Totals.Escaped, s.Totals.Unresolved)
	}
	if got := s.CoveredBy("sud"); got != 1 {
		t.Errorf("CoveredBy(sud) = %d, want 1", got)
	}
	if got := s.CoveredBy("rewrite"); got != 1 {
		t.Errorf("CoveredBy(rewrite) = %d, want 1", got)
	}
}

func TestUnclaimedTrapIsStartupThenPostCoverage(t *testing.T) {
	a := feed([]kernel.Event{
		// Two executed syscalls before any claim: startup window.
		oracleEv(1, 1, kernel.SysOpen, "trap", 10),
		oracleEv(1, 1, kernel.SysMmap, "trap", 20),
		// Coverage established...
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 30),
		oracleEv(1, 1, kernel.SysWrite, "trap", 40),
		// ...then an unclaimed trap: a hard post-coverage escape.
		oracleEv(1, 1, kernel.SysRead, "trap", 50),
	})
	s := a.Snapshot()
	if got := s.EscapedIn(EscStartup); got != 2 {
		t.Errorf("startup escapes = %d, want 2", got)
	}
	if got := s.EscapedIn(EscPostCoverage); got != 1 {
		t.Errorf("post-coverage escapes = %d, want 1", got)
	}
	if p := s.MainProc(); p == nil || p.TTFC != 2 {
		t.Errorf("TTFC = %+v, want 2", p)
	}
	if len(s.Ledger) != 3 {
		t.Errorf("ledger has %d entries, want 3", len(s.Ledger))
	}
	for _, l := range s.Ledger {
		if len(l.Excerpt) == 0 {
			t.Errorf("ledger entry %s/%s has no proving excerpt", l.Category, l.Name)
		}
	}
}

func TestDirectAndHostcallOraclesAreInternal(t *testing.T) {
	a := feed([]kernel.Event{
		oracleEv(1, 1, kernel.SysMmap, "direct", 10),
		oracleEv(1, 1, kernel.SysMprotect, "hostcall", 20),
	})
	s := a.Snapshot()
	if s.Totals.Internal != 2 || s.Totals.Escaped != 0 {
		t.Fatalf("internal=%d escaped=%d, want 2/0", s.Totals.Internal, s.Totals.Escaped)
	}
	// Non-trap oracles never count toward time-to-first-coverage.
	if p := s.MainProc(); p.TTFC != 0 {
		t.Errorf("TTFC = %d, want 0", p.TTFC)
	}
}

func TestHostcallOracleStillConsumesClaim(t *testing.T) {
	// An app syscall re-executed through an SUD gate: claimed by the
	// mechanism, executed through the interposer's own CallGuestInfra
	// stub.
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 10),
		oracleEv(1, 1, kernel.SysWrite, "hostcall", 20),
	})
	s := a.Snapshot()
	if s.Totals.Covered != 1 || s.Totals.Internal != 0 {
		t.Fatalf("covered=%d internal=%d, want 1/0", s.Totals.Covered, s.Totals.Internal)
	}
}

func TestRetryCoalescing(t *testing.T) {
	// A blocked call re-traps through the same mechanism at the same
	// site: one dynamic call, one eventual oracle, one claim.
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysRead, 0x100, "sud", 10),
		claimEv(1, 1, kernel.SysRead, 0x100, "sud", 20),
		claimEv(1, 1, kernel.SysRead, 0x100, "sud", 30),
		oracleEv(1, 1, kernel.SysRead, "trap", 40),
	})
	s := a.Snapshot()
	if s.Totals.Retries != 2 {
		t.Errorf("retries = %d, want 2", s.Totals.Retries)
	}
	if s.Totals.Claims != 1 || s.Totals.Covered != 1 || s.Totals.Unresolved != 0 {
		t.Errorf("claims=%d covered=%d unresolved=%d, want 1/1/0",
			s.Totals.Claims, s.Totals.Covered, s.Totals.Unresolved)
	}
}

func TestDoubleInterpositionDetected(t *testing.T) {
	// Two different mechanisms claim the same pending number: the same
	// dynamic call was interposed twice.
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysWrite, 0x100, "rewrite", 10),
		claimEv(1, 1, kernel.SysWrite, 0x200, "sud", 20),
		oracleEv(1, 1, kernel.SysWrite, "trap", 30),
	})
	s := a.Snapshot()
	if s.Totals.DoubleInterposition != 1 {
		t.Errorf("double interposition = %d, want 1", s.Totals.DoubleInterposition)
	}
	// One oracle retires the newest claim; the stale one stays pending.
	if s.Totals.Unresolved != 1 {
		t.Errorf("unresolved = %d, want 1", s.Totals.Unresolved)
	}
}

func TestMisattributionFlagged(t *testing.T) {
	// The mechanism claimed getpid but the kernel executed write: the
	// attribution stream named the wrong call.
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysGetpid, 0x100, "rewrite", 10),
		oracleEv(1, 1, kernel.SysWrite, "trap", 20),
	})
	s := a.Snapshot()
	if s.Totals.Misattributed != 1 {
		t.Errorf("misattributed = %d, want 1", s.Totals.Misattributed)
	}
	if s.Totals.Escaped != 1 {
		t.Errorf("escaped = %d, want 1 (the executed write is still unclaimed)", s.Totals.Escaped)
	}
}

func TestEmulatedResolveRetiresClaimWithoutOracle(t *testing.T) {
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysGetpid, 0x100, "sud", 10),
		{Kind: kernel.EvResolve, PID: 1, TID: 1, Num: kernel.SysGetpid, Detail: "sud", Ret: 1, Clock: 20},
	})
	s := a.Snapshot()
	if s.Totals.Emulated != 1 || s.Totals.Covered != 1 || s.Totals.Unresolved != 0 {
		t.Fatalf("emulated=%d covered=%d unresolved=%d, want 1/1/0",
			s.Totals.Emulated, s.Totals.Covered, s.Totals.Unresolved)
	}
}

func TestRenumberingResolveRewritesClaim(t *testing.T) {
	// The interposer renumbers a claimed call (Ret=0 resolve), then the
	// kernel executes the new number: still covered.
	a := feed([]kernel.Event{
		claimEv(1, 1, kernel.SysOpen, 0x100, "sud", 10),
		{Kind: kernel.EvResolve, PID: 1, TID: 1, Num: kernel.SysOpenat, Detail: "sud", Ret: 0, Clock: 20},
		oracleEv(1, 1, kernel.SysOpenat, "trap", 30),
	})
	s := a.Snapshot()
	if s.Totals.Covered != 1 || s.Totals.Escaped != 0 {
		t.Fatalf("covered=%d escaped=%d, want 1/0", s.Totals.Covered, s.Totals.Escaped)
	}
}

func TestSignalAndCloneChildCategories(t *testing.T) {
	a := feed([]kernel.Event{
		// Coverage established first (so escapes are not startup).
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 10),
		oracleEv(1, 1, kernel.SysWrite, "trap", 20),
		// A signal is delivered; an unclaimed trap inside the handler is
		// a signal-path escape.
		{Kind: kernel.EvSignal, PID: 1, TID: 1, Num: 14, Clock: 30},
		oracleEv(1, 1, kernel.SysGetpid, "trap", 40),
		// Handler tears down via rt_sigreturn: interposition machinery,
		// not an escape.
		oracleEv(1, 1, kernel.SysRtSigreturn, "trap", 50),
	})
	// An unclaimed raw clone escapes AND taints its child, whose own
	// syscalls carry the clone-child cause. The clone oracle's Ret names
	// the child TID.
	a.Handle(&kernel.Event{Kind: kernel.EvOracle, PID: 1, TID: 1, Num: kernel.SysClone, Detail: "trap", Ret: 2, Clock: 60})
	a.Handle(&kernel.Event{Kind: kernel.EvOracle, PID: 1, TID: 2, Num: kernel.SysGetpid, Detail: "trap", Clock: 70})
	s := a.Snapshot()
	if got := s.EscapedIn(EscSignal); got != 1 {
		t.Errorf("signal escapes = %d, want 1", got)
	}
	if s.Totals.SignalInfra != 1 {
		t.Errorf("signal infra = %d, want 1", s.Totals.SignalInfra)
	}
	if got := s.EscapedIn(EscCloneChild); got != 1 {
		t.Errorf("clone-child escapes = %d, want 1", got)
	}
}

func TestMergeAssociativeAndOrderIndependentTotals(t *testing.T) {
	mk := func(pid int, nr uint64, mech string) *Snapshot {
		return feed([]kernel.Event{
			claimEv(pid, pid, nr, 0x100, mech, 10),
			oracleEv(pid, pid, nr, "trap", 20),
			oracleEv(pid, pid, kernel.SysOpen, "trap", 30),
		}).Snapshot()
	}
	a, b, c := mk(1, kernel.SysWrite, "sud"), mk(2, kernel.SysWrite, "rewrite"), mk(3, kernel.SysRead, "sud")

	left := &Snapshot{}
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	right := &Snapshot{}
	bc := &Snapshot{}
	bc.Merge(b)
	bc.Merge(c)
	right.Merge(a)
	right.Merge(bc)

	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge is not associative:\n left: %+v\nright: %+v", left, right)
	}
	if left.Totals.Covered != 3 || left.Totals.Escaped != 3 {
		t.Errorf("merged covered=%d escaped=%d, want 3/3", left.Totals.Covered, left.Totals.Escaped)
	}
	// Matrix cells merged by key: write is covered by two mechanisms.
	if got := left.CoveredBy("sud"); got != 2 {
		t.Errorf("CoveredBy(sud) = %d, want 2", got)
	}
	// Escape cells with the same (category, nr) collapsed into one. The
	// open escapes land after each World's coverage was established, so
	// they classify as post-coverage.
	count := 0
	for _, e := range left.Escapes {
		if e.Category == EscPostCoverage && e.Nr == kernel.SysOpen {
			count++
			if e.Count != 3 {
				t.Errorf("merged open escape count = %d, want 3", e.Count)
			}
		}
	}
	if count != 1 {
		t.Errorf("found %d (post-coverage, open) cells after merge, want 1", count)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	a := feed([]kernel.Event{
		oracleEv(1, 1, kernel.SysMmap, "trap", 10),
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 20),
		oracleEv(1, 1, kernel.SysWrite, "trap", 30),
		{Kind: kernel.EvGuardMem, PID: 1, TID: 1, Detail: "bitmap", Args: [6]uint64{1 << 20, 4096}, Clock: 40},
	})
	var buf bytes.Buffer
	if err := a.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL rejected own output: %v\n%s", err, buf.String())
	}
	want := strings.Count(buf.String(), "\n") - 2 // header and trailer
	if n != want {
		t.Errorf("validated %d lines, want %d", n, want)
	}
}

func TestValidateJSONLRejectsBadStreams(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"no summary", `{"t":"coverage","nr":1,"name":"write","mechanism":"sud","count":1}`, "exactly one summary"},
		{"double summary", `{"t":"summary","oracles":1,"claims":0,"covered":0,"emulated":0,"escaped":0,"internal":1,"signal_infra":0,"retries":0,"double_interposition":0,"misattributed":0,"unresolved":0,"rewrites_genuine":0,"rewrites_misidentified":0,"perm_clobbers":0,"vdso_mapped":0,"vdso_disabled":0,"signal_deaths":0,"stale_fetches":0}
{"t":"summary","oracles":1,"claims":0,"covered":0,"emulated":0,"escaped":0,"internal":1,"signal_infra":0,"retries":0,"double_interposition":0,"misattributed":0,"unresolved":0,"rewrites_genuine":0,"rewrites_misidentified":0,"perm_clobbers":0,"vdso_mapped":0,"vdso_disabled":0,"signal_deaths":0,"stale_fetches":0}`, "exactly one summary"},
		{"unknown type", `{"t":"bogus"}`, "unknown record type"},
		{"bad category", `{"t":"escape","category":"weird","nr":1,"name":"write","count":1}`, "unknown escape category"},
		{"missing field", `{"t":"coverage","nr":1,"name":"write","count":1}`, `missing "mechanism"`},
		{"not a record", `hello`, "not a tagged record"},
		{"escape sum mismatch", `{"t":"summary","oracles":1,"claims":0,"covered":0,"emulated":0,"escaped":5,"internal":0,"signal_infra":0,"retries":0,"double_interposition":0,"misattributed":0,"unresolved":0,"rewrites_genuine":0,"rewrites_misidentified":0,"perm_clobbers":0,"vdso_mapped":0,"vdso_disabled":0,"signal_deaths":0,"stale_fetches":0}
{"t":"escape","category":"startup","nr":1,"name":"write","count":1}`, "escape records sum"},
	}
	for _, tc := range cases {
		_, err := ValidateJSONL(bytes.NewReader(canon.Seal(Kind, 1, []byte(tc.input))))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestVerdictRules(t *testing.T) {
	base := func() *Snapshot {
		return &Snapshot{Procs: []ProcReport{{PID: 1, Oracles: 10, Claims: 10}}}
	}
	cases := []struct {
		name    string
		pitfall string
		mutate  func(*Snapshot)
		want    bool // handled (protected)?
	}{
		{"P1a exec bypass", "P1a", func(s *Snapshot) {
			s.Procs = append(s.Procs, ProcReport{PID: 2, SawExec: true, TrapsSinceExec: 50})
		}, false},
		{"P1a exec re-covered", "P1a", func(s *Snapshot) {
			s.Procs = append(s.Procs, ProcReport{PID: 2, SawExec: true, ClaimsSinceExec: 7, TrapsSinceExec: 50})
		}, true},
		{"P1b escape", "P1b", func(s *Snapshot) {
			s.Escapes = []EscapeStat{{Category: EscPostCoverage, Nr: kernel.SysWrite, Count: 1}}
		}, false},
		{"P1b clean", "P1b", func(s *Snapshot) {}, true},
		{"P2b vdso mapped", "P2b", func(s *Snapshot) { s.Totals.VdsoMapped = 1 }, false},
		{"P2b slow ttfc", "P2b", func(s *Snapshot) { s.Procs[0].TTFC = TTFCThreshold + 1 }, false},
		{"P2b covered from exec", "P2b", func(s *Snapshot) { s.Totals.VdsoDisabled = 1 }, true},
		{"P3 misidentified rewrite", "P3a", func(s *Snapshot) { s.Totals.RewritesMisidentified = 2 }, false},
		{"P3 clean rewrites", "P3b", func(s *Snapshot) { s.Totals.RewritesGenuine = 9 }, true},
		{"P4a marker exit", "P4a", func(s *Snapshot) {
			s.Procs[0].Exited = true
			s.Procs[0].ExitCode = 55
		}, false},
		{"P4b guard blowup", "P4b", func(s *Snapshot) {
			s.GuardMem = []GuardMemStat{{Kind: "bitmap", MaxReservedBytes: 512 << 20, MaxResidentBytes: 2 << 20}}
		}, false},
		{"P4b compact guard", "P4b", func(s *Snapshot) {
			s.GuardMem = []GuardMemStat{{Kind: "robin-set", MaxReservedBytes: 4096, MaxResidentBytes: 4096}}
		}, true},
		{"P5 signal death", "P5", func(s *Snapshot) { s.Totals.SignalDeaths = 1 }, false},
		{"P5 stale fetch", "P5", func(s *Snapshot) { s.Totals.StaleFetches = 3 }, false},
		{"P5 clean", "P5", func(s *Snapshot) {}, true},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		handled, detail := PitfallVerdict(tc.pitfall, []*Snapshot{s})
		if handled != tc.want {
			t.Errorf("%s: handled = %v (%s), want %v", tc.name, handled, detail, tc.want)
		}
		if detail == "" {
			t.Errorf("%s: verdict carries no supporting detail", tc.name)
		}
	}
}

func TestFormatSmoke(t *testing.T) {
	a := feed([]kernel.Event{
		oracleEv(1, 1, kernel.SysMmap, "trap", 10),
		claimEv(1, 1, kernel.SysWrite, 0x100, "sud", 20),
		oracleEv(1, 1, kernel.SysWrite, "trap", 30),
	})
	var buf bytes.Buffer
	a.Snapshot().Format(&buf)
	out := buf.String()
	for _, want := range []string{"audit:", "coverage matrix", "escapes by pitfall category", "escape ledger", "ttfc=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}
