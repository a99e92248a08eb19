package sfip_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"k23/internal/kernel"
	"k23/internal/sfip"
)

// buildPolicy returns a small policy with a thread-start edge, a chain
// edge, and two origins — enough structure to exercise every lookup.
func buildPolicy() *sfip.Policy {
	p := sfip.NewPolicy("app", "mech")
	p.AddOrigin(0, 0x1000) // read from site 0x1000
	p.AddOrigin(1, 0x1000) // write from the same site
	p.AddOrigin(1, 0x2000) // write from a second site, seen twice
	p.AddOrigin(1, 0x2000)
	p.AddEdge(sfip.FirstCall, 0) // thread start -> read
	p.AddEdge(0, 1)              // read -> write
	return p
}

func TestPolicyRoundTrip(t *testing.T) {
	p := buildPolicy()
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	serialized := buf.String()

	n, err := sfip.ValidatePolicyJSONL(strings.NewReader(serialized))
	if err != nil {
		t.Fatalf("ValidatePolicyJSONL: %v", err)
	}
	if want := 1 + p.Origins() + p.Edges(); n != want {
		t.Errorf("ValidatePolicyJSONL counted %d lines, want %d", n, want)
	}

	got, err := sfip.ReadPolicy(strings.NewReader(serialized))
	if err != nil {
		t.Fatalf("ReadPolicy: %v", err)
	}
	if got.Hash() != p.Hash() {
		t.Errorf("round-trip changed the policy hash: %#x -> %#x", p.Hash(), got.Hash())
	}
	if got.App != "app" || got.Mech != "mech" {
		t.Errorf("round-trip lost identity: app=%q mech=%q", got.App, got.Mech)
	}

	// Serialization is deterministic: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := got.WriteJSONL(&buf2); err != nil {
		t.Fatalf("re-serialize: %v", err)
	}
	if buf2.String() != serialized {
		t.Errorf("re-serialization is not byte-identical")
	}

	// A truncated stream fails the trailer check.
	lines := strings.Split(strings.TrimRight(serialized, "\n"), "\n")
	truncated := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if _, err := sfip.ReadPolicy(strings.NewReader(truncated)); err == nil {
		t.Errorf("ReadPolicy accepted a truncated stream")
	}
}

func TestPolicyMergeCommutative(t *testing.T) {
	mk := func() (*sfip.Policy, *sfip.Policy) {
		a := sfip.NewPolicy("app", "mech")
		a.AddOrigin(0, 0x1000)
		a.AddEdge(sfip.FirstCall, 0)
		b := sfip.NewPolicy("app", "mech")
		b.AddOrigin(0, 0x1000) // overlapping: counts must sum
		b.AddOrigin(2, 0x3000)
		b.AddEdge(0, 2)
		return a, b
	}
	a1, b1 := mk()
	a1.Merge(b1)
	a2, b2 := mk()
	b2.Merge(a2)
	// App/Mech match, so the hashes compare the full merged content.
	if a1.Hash() != b2.Hash() {
		t.Errorf("merge is not commutative: %#x vs %#x", a1.Hash(), b2.Hash())
	}
	if a1.Origins() != 2 || a1.Edges() != 2 {
		t.Errorf("merged cardinality = %d origins / %d edges, want 2 / 2", a1.Origins(), a1.Edges())
	}
}

// TestEnforcerDeniesUnseen pins the enforcement semantics: unknown
// origins and unknown edges are violations; enforce mode denies, log
// mode counts but allows, off mode does not even check. Denied calls
// never advance the predecessor chain (Commit is the kernel's job and
// only fires on completion).
func TestEnforcerDeniesUnseen(t *testing.T) {
	p := buildPolicy()

	t.Run("enforce", func(t *testing.T) {
		e := sfip.NewEnforcer(p, sfip.ModeEnforce)
		if !e.Enforcing() {
			t.Fatal("Enforcing() = false in enforce mode")
		}
		// Thread start -> read from a learned site: allowed.
		if v, deny := e.Check(1, 1, 0, 0x1000); v != "" || deny {
			t.Errorf("learned first call rejected: %q deny=%v", v, deny)
		}
		e.Commit(1, 1, 0)
		// read -> write is a learned edge from a learned site: allowed.
		if v, deny := e.Check(1, 1, 1, 0x2000); v != "" || deny {
			t.Errorf("learned transition rejected: %q deny=%v", v, deny)
		}
		e.Commit(1, 1, 1)
		// write -> write was never observed: unknown edge, denied.
		v, deny := e.Check(1, 1, 1, 0x2000)
		if !strings.HasPrefix(v, sfip.CatUnknownEdge) || !deny {
			t.Errorf("unseen transition: violation=%q deny=%v, want unknown-edge + deny", v, deny)
		}
		// The denied call did not Commit, so the predecessor is still
		// write and the same re-issued call is denied again — identically.
		if v2, deny2 := e.Check(1, 1, 1, 0x2000); v2 != v || !deny2 {
			t.Errorf("re-issued denied call: violation=%q deny=%v, want a repeat of %q", v2, deny2, v)
		}
		// An unlearned site is an unknown origin even for a known number.
		if v, deny := e.Check(1, 1, 0, 0xbad0); !strings.HasPrefix(v, sfip.CatUnknownOrigin) || !deny {
			t.Errorf("unseen site: violation=%q deny=%v, want unknown-origin + deny", v, deny)
		}
		// A second thread starts its own chain: start -> write is unknown.
		if v, _ := e.Check(1, 2, 1, 0x2000); !strings.HasPrefix(v, sfip.CatUnknownEdge) {
			t.Errorf("second thread inherited a predecessor: violation=%q", v)
		}
		rep := e.Report()
		if rep.Checked != 6 || rep.Violations != 4 || rep.Denied != 4 {
			t.Errorf("report = %d checked / %d violations / %d denied, want 6 / 4 / 4",
				rep.Checked, rep.Violations, rep.Denied)
		}
	})

	t.Run("log", func(t *testing.T) {
		e := sfip.NewEnforcer(p, sfip.ModeLog)
		if e.Enforcing() {
			t.Fatal("Enforcing() = true in log mode")
		}
		v, deny := e.Check(1, 1, 9, 0xbad0)
		if v == "" || deny {
			t.Errorf("log mode: violation=%q deny=%v, want violation without deny", v, deny)
		}
		rep := e.Report()
		if rep.Violations != 1 || rep.Denied != 0 {
			t.Errorf("log report = %d violations / %d denied, want 1 / 0", rep.Violations, rep.Denied)
		}
	})

	t.Run("off", func(t *testing.T) {
		e := sfip.NewEnforcer(p, sfip.ModeOff)
		if v, deny := e.Check(1, 1, 9, 0xbad0); v != "" || deny {
			t.Errorf("off mode checked: %q deny=%v", v, deny)
		}
		if rep := e.Report(); rep.Checked != 0 {
			t.Errorf("off mode counted %d checks", rep.Checked)
		}
	})
}

// TestLearnerClassFilter pins the training discipline: only trap-origin
// oracles the audit join attributes to the interposer or to signal
// infrastructure widen the policy; escapes advance the predecessor chain
// (the call really executed) but are never learned; non-trap oracles are
// ignored entirely.
func TestLearnerClassFilter(t *testing.T) {
	l := sfip.NewLearner("app", "mech")
	oracle := func(nr, site uint64, detail, class string) {
		l.OnOracle(&kernel.Event{PID: 1, TID: 1, Num: nr, Site: site, Detail: detail}, class)
	}
	oracle(0, 0x1000, "trap", "covered")         // learned: start -> read
	oracle(1, 0x1000, "trap", "escape:startup")  // executed, not learned
	oracle(2, 0x1000, "trap", "covered")         // learned: write(1) -> close(2)
	oracle(3, 0x9000, "direct", "covered")       // non-trap: ignored outright
	oracle(4, 0x1000, "trap", "signal-infra")    // learned: close(2) -> rt_sigreturn(4)
	oracle(5, 0x1000, "trap", "escape:internal") // executed, not learned

	p := l.Policy()
	if p.Origins() != 3 {
		t.Errorf("policy has %d origins, want 3 (covered + signal-infra only)", p.Origins())
	}
	for _, c := range []struct {
		nr   uint64
		want bool
	}{{0, true}, {1, false}, {2, true}, {3, false}, {4, true}, {5, false}} {
		if got := p.AllowedOrigin(c.nr, mustSite(c.nr)); got != c.want {
			t.Errorf("AllowedOrigin(%d) = %v, want %v", c.nr, got, c.want)
		}
	}
	// The escape at nr=1 advanced the predecessor: the learned edge into
	// nr=2 is 1 -> 2, not 0 -> 2.
	if !p.AllowedEdge(sfip.FirstCall, 0) {
		t.Errorf("missing start -> 0 edge")
	}
	if !p.AllowedEdge(1, 2) {
		t.Errorf("missing 1 -> 2 edge (escape must advance the predecessor)")
	}
	if p.AllowedEdge(0, 2) {
		t.Errorf("unexpected 0 -> 2 edge (escape skipped in the chain)")
	}
	if p.AllowedEdge(0, 1) {
		t.Errorf("escape target was learned as an edge destination")
	}
}

// mustSite returns the site each test oracle used for nr (non-trap nr=3
// used a different one; its absence is part of the assertion).
func mustSite(nr uint64) uint64 {
	if nr == 3 {
		return 0x9000
	}
	return 0x1000
}

func TestReportJSONLRoundTrip(t *testing.T) {
	rep := &sfip.Report{
		Mode: "enforce", App: "app", Mech: "mech",
		Checked: 10, Violations: 3, Denied: 3,
		Ledger: []sfip.Violation{
			{Category: sfip.CatUnknownOrigin, PID: 1, TID: 1, Nr: 9, Name: "nine", Site: 0xbad0, Seq: 7, Detail: "unknown-origin nine at site 0xbad0"},
			{Category: sfip.CatUnknownEdge, PID: 1, TID: 1, Nr: 1, Name: "write", Seq: 9, Detail: "unknown-edge read -> write"},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	n, err := sfip.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != 3 {
		t.Errorf("validated %d lines, want 3", n)
	}

	// More ledgered violations than the summary counts is a corruption.
	bad := *rep
	bad.Violations = 1
	buf.Reset()
	if err := bad.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := sfip.ValidateJSONL(bytes.NewReader(buf.Bytes())); err == nil {
		t.Errorf("ValidateJSONL accepted ledger > summary violations")
	}
}

// TestEnforcerSnapshotRestore pins the rr host-state contract: a
// snapshot freezes the predecessor chains, counters and ledger; later
// mutations change HashState; restore brings the hash back exactly.
func TestEnforcerSnapshotRestore(t *testing.T) {
	p := buildPolicy()
	e := sfip.NewEnforcer(p, sfip.ModeEnforce)
	e.Check(1, 1, 0, 0x1000)
	e.Commit(1, 1, 0)
	e.HandleEvent(&kernel.Event{Kind: kernel.EvSfipViolation, PID: 1, TID: 1, Num: 9,
		Seq: 5, Detail: "unknown-origin nine at site 0xbad0"})

	snap := e.SnapshotHostState()
	h0 := e.HashState()

	e.Check(1, 1, 1, 0x2000)
	e.Commit(1, 1, 1)
	e.Check(2, 1, 9, 0xbad0)
	if e.HashState() == h0 {
		t.Fatal("HashState ignored post-snapshot mutations")
	}

	e.RestoreHostState(snap)
	if got := e.HashState(); got != h0 {
		t.Errorf("restore did not reproduce the snapshot hash: %#x != %#x", got, h0)
	}
	rep := e.Report()
	if rep.Checked != 1 || len(rep.Ledger) != 1 {
		t.Errorf("restored report = %d checked / %d ledgered, want 1 / 1", rep.Checked, len(rep.Ledger))
	}
	if !reflect.DeepEqual(rep.Ledger[0].Detail, "unknown-origin nine at site 0xbad0") {
		t.Errorf("restored ledger entry drifted: %+v", rep.Ledger[0])
	}
}
