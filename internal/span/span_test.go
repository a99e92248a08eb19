package span

import (
	"bytes"
	"strings"
	"testing"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// mk builds one phase mark. Clock and Cycles advance together in these
// synthetic streams unless a test sets them apart.
func mk(ph kernel.Phase, tid int, clock, cycles, num, site uint64, detail string) kernel.PhaseMark {
	return kernel.PhaseMark{
		Clock: clock, Cycles: cycles, PID: tid / 100, TID: tid,
		Phase: ph, Num: num, Site: site, Detail: detail,
	}
}

// feed runs marks through a fresh builder and finishes it.
func feed(marks ...kernel.PhaseMark) *Set {
	b := NewBuilder("m0")
	for _, m := range marks {
		b.HandlePhase(&m)
	}
	return b.Finish()
}

// TestBuilderSimpleLifecycle: trap → kernel → return yields one syscall
// span with trap and kernel slices whose self-times partition the span.
func TestBuilderSimpleLifecycle(t *testing.T) {
	s := feed(
		mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""),
		mk(kernel.PhKernel, 100, 10, 160, 1, 0x40, ""),
		mk(kernel.PhReturn, 100, 10, 210, 1, 0x40, ""),
	)
	if len(s.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(s.Spans))
	}
	sp := s.Spans[0]
	if sp.Kind != KindSyscall || sp.Num != 1 || sp.Forced {
		t.Fatalf("span = %+v", sp)
	}
	if sp.Y0 != 10 || sp.Y1 != 210 {
		t.Errorf("cycle bounds %d..%d, want 10..210", sp.Y0, sp.Y1)
	}
	if len(sp.Slices) != 2 || sp.Slices[0].Phase != "trap" || sp.Slices[1].Phase != "kernel" {
		t.Fatalf("slices = %+v", sp.Slices)
	}
	if d := sp.Slices[0].Y1 - sp.Slices[0].Y0; d != 150 {
		t.Errorf("trap self-cycles = %d, want 150", d)
	}
	if d := sp.Slices[1].Y1 - sp.Slices[1].Y0; d != 50 {
		t.Errorf("kernel self-cycles = %d, want 50", d)
	}
}

// TestBuilderNestedHandler: a handler span opened inside a trap span cuts
// the parent's slice at the boundary and resumes it afterwards, so parent
// slices hold self-time only.
func TestBuilderNestedHandler(t *testing.T) {
	s := feed(
		mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""),
		mk(kernel.PhHandler, 100, 10, 110, 1, 0x40, "ptrace"),
		mk(kernel.PhHandlerRet, 100, 10, 410, 1, 0x40, ""),
		mk(kernel.PhKernel, 100, 10, 460, 1, 0x40, ""),
		mk(kernel.PhReturn, 100, 10, 510, 1, 0x40, ""),
	)
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	trap, handler := s.Spans[0], s.Spans[1]
	if handler.Parent != trap.ID || handler.Mech != "ptrace" {
		t.Fatalf("handler = %+v", handler)
	}
	// Parent slices: trap [10,110) cut at the child, resumed [410,460),
	// then kernel [460,510).
	var self uint64
	for _, sl := range trap.Slices {
		self += sl.Y1 - sl.Y0
	}
	if self != 200 {
		t.Errorf("trap self-cycles = %d, want 200 (child time excluded)", self)
	}
	if handler.Y1-handler.Y0 != 300 {
		t.Errorf("handler cycles = %d, want 300", handler.Y1-handler.Y0)
	}
}

// TestBuilderBlockWakeRetry: a blocked call closes with its wake
// predicate; the wake mark annotates the wake clock; the retry trap at
// the same (num, site) gets a block cause edge.
func TestBuilderBlockWakeRetry(t *testing.T) {
	s := feed(
		mk(kernel.PhTrap, 100, 10, 10, 0, 0x40, ""),
		mk(kernel.PhBlock, 100, 20, 170, 0, 0x40, "conn-read"),
		mk(kernel.PhWake, 100, 500, 170, 0, 0x40, "conn-read"),
		mk(kernel.PhTrap, 100, 500, 180, 0, 0x40, ""),
		mk(kernel.PhReturn, 100, 510, 380, 0, 0x40, ""),
	)
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	first, retry := s.Spans[0], s.Spans[1]
	if !first.Blocked || first.WakeReason != "conn-read" || first.WakeClock != 500 {
		t.Fatalf("blocked span = %+v", first)
	}
	if retry.Cause != first.ID || retry.CauseKind != CauseBlock {
		t.Fatalf("retry cause = %d/%q, want %d/block", retry.Cause, retry.CauseKind, first.ID)
	}
}

// TestBuilderForwardEdge: a handler that forwards and closes before the
// re-issued call traps (the K23 fast path) links the next trap by a
// forward cause edge instead of nesting it.
func TestBuilderForwardEdge(t *testing.T) {
	s := feed(
		mk(kernel.PhHandler, 100, 10, 10, 1, 0x40, "rewrite"),
		mk(kernel.PhForward, 100, 10, 40, 1, 0x40, ""),
		mk(kernel.PhHandlerRet, 100, 10, 50, 1, 0x40, ""),
		mk(kernel.PhTrap, 100, 10, 60, 1, 0x40, ""),
		mk(kernel.PhReturn, 100, 10, 260, 1, 0x40, ""),
	)
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	handler, trap := s.Spans[0], s.Spans[1]
	if handler.Kind != KindHandler || trap.Kind != KindSyscall {
		t.Fatalf("kinds = %s/%s", handler.Kind, trap.Kind)
	}
	if trap.Cause != handler.ID || trap.CauseKind != CauseForward {
		t.Fatalf("trap cause = %d/%q, want %d/forward", trap.Cause, trap.CauseKind, handler.ID)
	}
}

// TestBuilderRestartChain: PhRestart after a block links the re-executed
// entry with a restart edge.
func TestBuilderRestartChain(t *testing.T) {
	s := feed(
		mk(kernel.PhTrap, 100, 10, 10, 0, 0x40, ""),
		mk(kernel.PhBlock, 100, 20, 170, 0, 0x40, "wait4"),
		mk(kernel.PhRestart, 100, 300, 170, 0, 0x40, ""),
		mk(kernel.PhTrap, 100, 300, 180, 0, 0x40, ""),
		mk(kernel.PhReturn, 100, 310, 380, 0, 0x40, ""),
	)
	if got := s.Spans[1].CauseKind; got != CauseRestart {
		t.Fatalf("cause kind = %q, want restart", got)
	}
}

// TestBuilderSignalDivert: a signal delivered over an open syscall span
// closes it (detail signal-divert) and the signal span is not wrongly
// force-closed by the syscall's pending close mark.
func TestBuilderSignalDivert(t *testing.T) {
	s := feed(
		mk(kernel.PhTrap, 100, 10, 10, 62, 0x40, ""), // kill(self)
		mk(kernel.PhSignal, 100, 10, 160, 31, 0x80, ""),
		mk(kernel.PhSigret, 100, 10, 400, 15, 0x80, ""),
	)
	if len(s.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(s.Spans))
	}
	call, sig := s.Spans[0], s.Spans[1]
	if call.Kind != KindSyscall || call.Detail != "signal-divert" || call.Forced {
		t.Fatalf("diverted call = %+v", call)
	}
	if sig.Kind != KindSignal || sig.Num != 31 || sig.Forced {
		t.Fatalf("signal span = %+v", sig)
	}
}

// TestBuilderEventAnnotations: the main-stream events annotate spans with
// return values, mechanism attribution, chaos tags, and clone edges.
func TestBuilderEventAnnotations(t *testing.T) {
	b := NewBuilder("m0")
	phase := func(m kernel.PhaseMark) { b.HandlePhase(&m) }
	phase(mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""))
	b.HandleEvent(&kernel.Event{Kind: kernel.EvInterposed, TID: 100, Detail: "ptrace"})
	b.HandleEvent(&kernel.Event{Kind: kernel.EvChaos, TID: 100, Detail: "eintr"})
	b.HandleEvent(&kernel.Event{Kind: kernel.EvFork, TID: 100, Ret: 201})
	b.HandleEvent(&kernel.Event{Kind: kernel.EvExit, TID: 100, Ret: 42})
	phase(mk(kernel.PhReturn, 100, 10, 210, 1, 0x40, ""))
	// The clone child's first span gets the cause edge.
	phase(mk(kernel.PhTrap, 201, 20, 0, 2, 0x50, ""))
	phase(mk(kernel.PhReturn, 201, 20, 200, 2, 0x50, ""))
	s := b.Finish()

	parent, child := s.Spans[0], s.Spans[1]
	if parent.Mech != "ptrace" || parent.Chaos != "eintr" || !parent.HasRet || parent.Ret != 42 {
		t.Fatalf("parent = %+v", parent)
	}
	if child.Cause != parent.ID || child.CauseKind != CauseClone {
		t.Fatalf("child cause = %d/%q, want %d/clone", child.Cause, child.CauseKind, parent.ID)
	}
}

// TestBuilderFinishForces: spans still open at Finish are closed and
// marked Forced.
func TestBuilderFinishForces(t *testing.T) {
	s := feed(mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""))
	if len(s.Spans) != 1 || !s.Spans[0].Forced {
		t.Fatalf("spans = %+v", s.Spans)
	}
}

// TestExportRoundTrip: WriteJSONL → ReadJSONL preserves hashes, passes
// the validator, and rejects tampering (the trailer pins count and hash).
func TestExportRoundTrip(t *testing.T) {
	set := feed(
		mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""),
		mk(kernel.PhKernel, 100, 10, 160, 1, 0x40, ""),
		mk(kernel.PhReturn, 100, 10, 210, 1, 0x40, ""),
	)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, set); err != nil {
		t.Fatal(err)
	}
	sets, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].Hash() != set.Hash() {
		t.Fatalf("round trip changed the set hash")
	}
	rep, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Spans != 1 {
		t.Fatalf("validation report = %+v", rep)
	}
	// A second write is byte-identical (canonical encoding).
	var again bytes.Buffer
	if err := WriteJSONL(&again, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("export is not canonical")
	}
	// Editing a span line breaks the trailer hash.
	edited := strings.Replace(buf.String(), `"num":1`, `"num":2`, 1)
	if _, err := ReadJSONL(strings.NewReader(edited)); err == nil {
		t.Error("edited stream accepted")
	}
	// Dropping the spans and trailer leaves no trailer.
	lines := strings.SplitAfter(buf.String(), "\n")
	if _, err := ReadJSONL(strings.NewReader(lines[0])); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestValidatorCatchesStructuralDamage: the set-level checks fire on
// dangling parents, inverted bounds, and unknown vocabulary.
func TestValidatorCatchesStructuralDamage(t *testing.T) {
	cases := []struct {
		name string
		sp   Span
	}{
		{"dangling parent", Span{ID: 1, Kind: KindSyscall, Parent: 99}},
		{"unknown kind", Span{ID: 1, Kind: "warp"}},
		{"negative duration", Span{ID: 1, Kind: KindSyscall, C0: 10, C1: 5}},
		{"dangling cause", Span{ID: 1, Kind: KindSyscall, Cause: 99, CauseKind: CauseBlock}},
		{"cause kind without id", Span{ID: 1, Kind: KindSyscall, CauseKind: CauseBlock}},
		{"blocked without reason", Span{ID: 1, Kind: KindSyscall, Blocked: true}},
		{"unknown slice phase", Span{ID: 1, Kind: KindSyscall, C1: 10, Y1: 10,
			Slices: []Slice{{Phase: "warp", C1: 5, Y1: 5}}}},
		{"slice beyond span", Span{ID: 1, Kind: KindSyscall, C1: 10, Y1: 10,
			Slices: []Slice{{Phase: "trap", C1: 50, Y1: 50}}}},
	}
	for _, tc := range cases {
		sp := tc.sp
		rep := validateSets([]*Set{{Machine: "m", Spans: []*Span{&sp}}})
		if rep.Ok() {
			t.Errorf("%s: validator found no problem", tc.name)
		}
	}
}

// TestAnalyzeAndCriticalPath: the analyzer aggregates self-cycles per
// (mech, phase) and the critical path walks cause chains including the
// off-CPU blocking edge.
func TestAnalyzeAndCriticalPath(t *testing.T) {
	set := feed(
		mk(kernel.PhTrap, 100, 10, 10, 0, 0x40, ""),
		mk(kernel.PhBlock, 100, 20, 170, 0, 0x40, "conn-read"),
		mk(kernel.PhWake, 100, 500, 170, 0, 0x40, "conn-read"),
		mk(kernel.PhTrap, 100, 500, 180, 0, 0x40, ""),
		mk(kernel.PhKernel, 100, 510, 330, 0, 0x40, ""),
		mk(kernel.PhReturn, 100, 520, 380, 0, 0x40, ""),
	)
	rep := Analyze(set)
	if rep.Spans != 2 || rep.Causes[CauseBlock] != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, cyc := phaseCycles(rep, "kernel", "trap"); cyc != 310 {
		t.Errorf("trap cycles = %d, want 310 (160+150)", cyc)
	}
	if len(rep.Blocked) != 1 || rep.Blocked[0].Reason != "conn-read" || rep.Blocked[0].Wait != 480 {
		t.Fatalf("blocked edges = %+v", rep.Blocked)
	}
	steps := CriticalPath(set, 0)
	if len(steps) == 0 {
		t.Fatal("no critical path")
	}
	var sawBlock bool
	var onCPU, offCPU uint64
	for _, st := range steps {
		if strings.HasPrefix(st.What, "blocked:") {
			sawBlock = true
			offCPU += st.Clock
		} else {
			onCPU += st.Cycles
		}
	}
	if !sawBlock || offCPU != 480 {
		t.Errorf("critical path missing the blocking edge: %+v", steps)
	}
	if onCPU != 360 {
		t.Errorf("on-cpu attribution = %d, want 360", onCPU)
	}
	if out := FormatSteps(steps); !strings.Contains(out, "blocked:conn-read") {
		t.Errorf("FormatSteps output missing the edge:\n%s", out)
	}
}

// TestHashAllOrderIndependence: hashAll folds sets in merge (machine)
// order, so input order does not matter; different content does.
func TestHashAllOrderIndependence(t *testing.T) {
	a := feed(mk(kernel.PhTrap, 100, 10, 10, 1, 0x40, ""), mk(kernel.PhReturn, 100, 10, 210, 1, 0x40, ""))
	a.Machine = "a"
	b := feed(mk(kernel.PhTrap, 100, 10, 10, 2, 0x40, ""), mk(kernel.PhReturn, 100, 10, 210, 2, 0x40, ""))
	b.Machine = "b"
	if hashAll([]*Set{a, b}) != hashAll([]*Set{b, a}) {
		t.Error("hashAll depends on input order")
	}
	if hashAll([]*Set{a, a}) == hashAll([]*Set{a, b}) {
		t.Error("hashAll ignores content")
	}
}

// phaseCycles returns the aggregate for one (mech, phase) cell of r.
func phaseCycles(r *Report, mech, phase string) (count, cycles uint64) {
	for _, pc := range r.Phases {
		if pc.Mech == mech && pc.Phase == phase {
			return pc.Count, pc.Cycles
		}
	}
	return 0, 0
}

// hashAll folds per-set hashes in merge order.
func hashAll(sets []*Set) uint64 {
	h := canon.NewHash()
	for _, s := range Merge(sets) {
		h.Uint64(s.Hash())
	}
	return uint64(h)
}
