package bench

import (
	"strings"
	"testing"

	"k23/internal/audit"
	"k23/internal/interpose/variants"
	"k23/internal/obsv"
)

func auditLs(t *testing.T, variant string) *audit.Snapshot {
	t.Helper()
	spec, ok := variants.ByName(variant)
	if !ok {
		t.Fatalf("unknown variant %q", variant)
	}
	snap, err := observe(spec, ls, obsv.New(obsv.Options{Audit: true}), 0)
	if err != nil {
		t.Fatalf("audit ls under %s: %v", variant, err)
	}
	s := snap.Audit
	if s == nil || s.MainProc() == nil {
		t.Fatalf("audit ls under %s: empty snapshot", variant)
	}
	return s
}

// TestStartupWindowLdPreload pins the paper's §6.1 startup-window claim
// from the audit side: under every LD_PRELOAD-injected mechanism, the
// loader and early libc issue over 100 system calls before the
// interposer's constructor runs — all of them ground-truth escapes in
// the "startup" taxonomy category, and all of them counted by
// time-to-first-coverage.
func TestStartupWindowLdPreload(t *testing.T) {
	for _, variant := range []string{"zpoline-ultra", "lazypoline", "sud"} {
		s := auditLs(t, variant)
		p := s.MainProc()
		if p.TTFC <= 100 {
			t.Errorf("%s: ls TTFC = %d, want > 100 (paper §6.1: over 100 startup syscalls)", variant, p.TTFC)
		}
		if got := s.EscapedIn("startup"); got != p.TTFC {
			t.Errorf("%s: startup escapes %d != TTFC %d — startup window misclassified", variant, got, p.TTFC)
		}
		// The startup window is the ONLY escape source for a benign
		// single-process workload.
		if s.Totals.Escaped != s.EscapedIn("startup") {
			t.Errorf("%s: %d escapes outside the startup category: %+v",
				variant, s.Totals.Escaped-s.EscapedIn("startup"), s.Escapes)
		}
	}
}

// TestStartupWindowExecAttached: mechanisms that attach at exec time —
// ptrace, and K23's ptrace-assisted startup — cover the loader itself,
// so time-to-first-coverage is ~0 and no startup escapes exist.
func TestStartupWindowExecAttached(t *testing.T) {
	for _, variant := range []string{"ptrace", "k23-default", "k23-ultra+"} {
		s := auditLs(t, variant)
		p := s.MainProc()
		if p.TTFC > audit.TTFCThreshold {
			t.Errorf("%s: ls TTFC = %d, want <= %d (exec-attached mechanisms have no startup window)",
				variant, p.TTFC, audit.TTFCThreshold)
		}
		if got := s.EscapedIn("startup"); got != 0 {
			t.Errorf("%s: %d startup escapes, want 0", variant, got)
		}
	}
}

// TestK23FullConfigZeroEscapes is the headline acceptance claim: the
// full K23 configuration shows zero ground-truth escapes of any
// category on every coverage workload — every executed syscall is
// either claimed by ptrace/rewrite/SUD or stamped as documented
// interposer infrastructure.
func TestK23FullConfigZeroEscapes(t *testing.T) {
	spec, _ := variants.ByName("k23-ultra+")
	for _, app := range coverageApps() {
		snap, err := observe(spec, app, obsv.New(obsv.Options{Audit: true}), 0)
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		s := snap.Audit
		if s.Totals.Escaped != 0 {
			t.Errorf("%s under k23-ultra+: %d escapes, want 0: %+v", app.name, s.Totals.Escaped, s.Escapes)
		}
		if s.Totals.Covered == 0 {
			t.Errorf("%s under k23-ultra+: no covered syscalls — join broken?", app.name)
		}
		if s.Totals.Misattributed != 0 || s.Totals.DoubleInterposition != 0 {
			t.Errorf("%s under k23-ultra+: misattributed=%d double=%d, want 0",
				app.name, s.Totals.Misattributed, s.Totals.DoubleInterposition)
		}
	}
}

// TestCoverageTableShape sanity-checks the claim formatter without
// pinning numbers (that is the golden's job): one header per cell, and
// every mechanism line belongs to the mechanisms the variant can use.
func TestCoverageTableShape(t *testing.T) {
	out, err := CoverageTable()
	if err != nil {
		t.Fatal(err)
	}
	cells := len(coverageApps()) * len(coverageVariants())
	if got := strings.Count(out, "["); got != cells {
		t.Errorf("coverage table has %d cell headers, want %d", got, cells)
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  mech ") {
			continue
		}
		mech := strings.TrimPrefix(line, "  mech ")
		mech = mech[:strings.IndexByte(mech, ':')]
		switch mech {
		case "rewrite", "sud", "ptrace":
		default:
			t.Errorf("unexpected mechanism %q in coverage table", mech)
		}
	}
}
