package probe

import (
	"bytes"
	"reflect"
	"testing"

	"k23/internal/cpu"
	"k23/internal/kernel"
)

func mustEngine(t *testing.T, src string) *Engine {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c.NewEngine("m0", "k23", 0)
}

func exitEvent(nr, ret, cost uint64, tid int) *kernel.Event {
	return &kernel.Event{PID: 1, TID: tid, Kind: kernel.EvExit, Num: nr, Ret: ret, Cost: cost, Clock: 100, Seq: 7}
}

func TestEngineCountSumMinMaxHist(t *testing.T) {
	e := mustEngine(t, `syscall:write:exit /errno == 0/ { count() by (name); sum(cycles); min(cycles); max(cycles); hist(cycles) by (mech) }`)
	e.HandleEvent(exitEvent(1, 8, 100, 1))
	e.HandleEvent(exitEvent(1, 8, 300, 1))
	eintr := int64(kernel.EINTR)
	e.HandleEvent(exitEvent(1, uint64(-eintr), 50, 1)) // errno != 0: filtered
	e.HandleEvent(exitEvent(0, 8, 999, 1))             // read: no match
	s := e.Snapshot()
	if len(s.Rows) != 5 {
		t.Fatalf("got %d rows, want 5: %+v", len(s.Rows), s.Rows)
	}
	// Rows are sorted by (probe, action): count, sum, min, max, hist.
	count, sum, min, max, hist := s.Rows[0], s.Rows[1], s.Rows[2], s.Rows[3], s.Rows[4]
	if count.Func != "count" || count.Count != 2 || count.Key[0] != "write" {
		t.Errorf("count row wrong: %+v", count)
	}
	if sum.Func != "sum" || sum.Val != 400 || sum.Count != 2 {
		t.Errorf("sum row wrong: %+v", sum)
	}
	if min.Val != 100 || max.Val != 300 {
		t.Errorf("min/max wrong: %+v %+v", min, max)
	}
	if hist.Func != "hist" || hist.Key[0] != "k23" || hist.Count != 2 || hist.Val != 400 {
		t.Errorf("hist row wrong: %+v", hist)
	}
	// 100 has bit length 7, 300 has bit length 9.
	if hist.Buckets[7] != 1 || hist.Buckets[9] != 1 || len(hist.Buckets) != 10 {
		t.Errorf("hist buckets wrong: %v", hist.Buckets)
	}
}

func TestEnginePhaseStreamAndMechContext(t *testing.T) {
	e := mustEngine(t, `phase:zpoline:handler { count() }
sched:block { count() by (name) }
phase:*:kernel { count() by (mech) }`)
	mark := func(ph kernel.Phase, detail string, nr uint64) *kernel.PhaseMark {
		return &kernel.PhaseMark{Phase: ph, Detail: detail, Num: nr, PID: 1, TID: 1}
	}
	e.HandlePhase(mark(kernel.PhHandler, "zpoline", 1))
	e.HandlePhase(mark(kernel.PhHandler, "seccomp-user", 1)) // mech mismatch
	e.HandlePhase(mark(kernel.PhBlock, "", 0))
	e.HandlePhase(mark(kernel.PhKernel, "", 1)) // mech falls back to engine context
	s := e.Snapshot()
	if len(s.Rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(s.Rows), s.Rows)
	}
	if s.Rows[0].Count != 1 {
		t.Errorf("zpoline handler count = %d, want 1", s.Rows[0].Count)
	}
	if s.Rows[1].Key[0] != "read" {
		t.Errorf("sched:block key = %v, want [read]", s.Rows[1].Key)
	}
	if s.Rows[2].Key[0] != "k23" {
		t.Errorf("phase:*:kernel mech key = %v, want engine context k23", s.Rows[2].Key)
	}
}

func TestEngineEmitRing(t *testing.T) {
	prog, err := Parse(`chaos:inject { emit() }`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Two emits past the cap overwrite the two oldest, at the default
	// capacity and at one that is not a power of two.
	for _, tc := range []struct{ arg, keep int }{{0, EmitCap}, {5, 5}} {
		e := c.NewEngine("m0", "", tc.arg)
		for i := 0; i < tc.keep+2; i++ {
			e.HandleEvent(&kernel.Event{Kind: kernel.EvChaos, Num: uint64(i), Seq: uint64(i), Detail: "short read"})
		}
		s := e.Snapshot()
		if len(s.Emits) != tc.keep {
			t.Fatalf("cap %d: ring retained %d, want %d", tc.arg, len(s.Emits), tc.keep)
		}
		if first, last := s.Emits[0].Ord, s.Emits[tc.keep-1].Ord; first != 2 || last != uint64(tc.keep+1) {
			t.Errorf("cap %d: ring order wrong: first ord %d last ord %d", tc.arg, first, last)
		}
		if s.Emits[0].Stream != "ev" || s.Emits[0].Kind != "chaos" {
			t.Errorf("cap %d: emit record wrong: %+v", tc.arg, s.Emits[0])
		}
	}
}

func TestSnapshotMergeCommutative(t *testing.T) {
	build := func(events ...*kernel.Event) *Snapshot {
		e := mustEngine(t, `syscall:*:exit { count() by (name); hist(cycles) by (name); min(cycles); max(cycles) }`)
		for _, ev := range events {
			e.HandleEvent(ev)
		}
		return e.Snapshot()
	}
	a := build(exitEvent(1, 8, 100, 1), exitEvent(0, 8, 700, 1))
	b := build(exitEvent(1, 8, 300, 2), exitEvent(1, 8, 50, 2))
	ab := build()
	ab.Merge(a)
	ab.Merge(b)
	ba := build()
	ba.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative:\n%+v\nvs\n%+v", ab, ba)
	}
	var bufAB, bufBA bytes.Buffer
	if err := ab.WriteJSONL(&bufAB); err != nil {
		t.Fatal(err)
	}
	if err := ba.WriteJSONL(&bufBA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufAB.Bytes(), bufBA.Bytes()) {
		t.Fatalf("merged exports differ:\n%s\nvs\n%s", bufAB.String(), bufBA.String())
	}
	// Spot-check the fold: 3 writes, 1 read; min 50 max 700.
	for _, r := range ab.Rows {
		switch {
		case r.Func == "count" && r.Key[0] == "write" && r.Count != 3:
			t.Errorf("write count = %d, want 3", r.Count)
		case r.Func == "min" && r.Val != 50:
			t.Errorf("min = %d, want 50", r.Val)
		case r.Func == "max" && r.Val != 700:
			t.Errorf("max = %d, want 700", r.Val)
		}
	}

	// Per-machine metrics snapshots fold, in either order, to what one
	// engine fed every machine's events produces.
	enoent := int64(kernel.ENOENT)
	machines := make([][]kernel.Event, 5)
	for i := 0; i < 400; i++ {
		m := i % len(machines)
		ev := exitEvent(uint64(i%13), uint64(i), uint64(i*37%5000), 1)
		ev.PID = 1 + i%3
		if i%7 == 0 {
			ev.Ret = uint64(-enoent)
		}
		machines[m] = append(machines[m], *ev)
		switch i % 9 {
		case 0:
			machines[m] = append(machines[m], kernel.Event{Kind: kernel.EvInterposed, Detail: []string{"rewrite", "sud", "ptrace"}[i%3]})
		case 1:
			machines[m] = append(machines[m], kernel.Event{Kind: kernel.EvSudSigsys})
		case 2:
			machines[m] = append(machines[m], kernel.Event{Kind: kernel.EvSeccompSigsys}, kernel.Event{Kind: kernel.EvEnter, Num: 1})
		}
	}
	metrics := func(evs ...[]kernel.Event) *Snapshot {
		e := mustEngine(t, MetricsProgram)
		for _, batch := range evs {
			for _, ev := range batch {
				e.HandleEvent(&ev)
			}
		}
		return e.Snapshot()
	}
	want := metrics(machines...)
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 2, 0, 3, 1}} {
		got := &Snapshot{}
		for _, m := range order {
			got.Merge(metrics(machines[m]))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("metrics fold in order %v differs from one engine over all events:\n%+v\nvs\n%+v", order, got, want)
		}
	}
}

// TestEngineSteadyStateAllocs: once a cell exists, feeding the engine
// allocates nothing — for events no probe matches, for phase marks, and
// for hits keyed by zero, one or two numeric and string fields.
func TestEngineSteadyStateAllocs(t *testing.T) {
	write := exitEvent(1, 8, 100, 1)
	read := exitEvent(0, 8, 100, 1)
	interposed := &kernel.Event{PID: 1, TID: 1, Kind: kernel.EvInterposed, Num: 1, Detail: "rewrite"}
	kmark := &kernel.PhaseMark{Phase: kernel.PhKernel, PID: 1, TID: 1, Num: 1, Cycles: 40}
	cases := []struct {
		name, prog string
		feed       func(e *Engine)
	}{
		{"event/no match", `syscall:write:exit { count() }
sched:block { count() }`, func(e *Engine) {
			e.HandleEvent(read)
			e.HandleEvent(interposed)
		}},
		{"phase mark", `phase:*:kernel { hist(cycles) by (mech) }
phase:zpoline:handler { count() }`, func(e *Engine) { e.HandlePhase(kmark) }},
		{"by ()", `syscall:*:exit { count(); hist(cycles) }`, func(e *Engine) { e.HandleEvent(write) }},
		{"by (nr)", `syscall:*:exit { hist(cycles) by (nr) }`, func(e *Engine) { e.HandleEvent(write) }},
		{"by (name)", `syscall:*:exit { count() by (name) }`, func(e *Engine) { e.HandleEvent(write) }},
		{"by (pid, errno)", `syscall:*:exit { sum(cycles) by (pid, errno) }`, func(e *Engine) { e.HandleEvent(write) }},
		{"by (kind, detail)", `event:* { max(cycles) by (kind, detail) }`, func(e *Engine) { e.HandleEvent(interposed) }},
		{"by (nr, mech)", `event:interposed { min(site) by (nr, mech) }`, func(e *Engine) { e.HandleEvent(interposed) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, tc.prog)
			tc.feed(e) // first sight creates the cells
			if n := testing.AllocsPerRun(100, func() { tc.feed(e) }); n != 0 {
				t.Errorf("%v allocations per event, want 0", n)
			}
		})
	}
}

func TestEngineInstallHooksOnlyProbedStreams(t *testing.T) {
	prog, err := Parse(`syscall:*:exit { count() }`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !c.hasEv || c.hasPh {
		t.Fatalf("stream classification wrong: ev=%v ph=%v", c.hasEv, c.hasPh)
	}
	k := kernel.New()
	c.NewEngine("", "", 0).Install(k)
	if !k.Tracing() {
		t.Error("event probe did not subscribe an event sink")
	}
	// A phase sink would advance the phase ordinal, which the state
	// hash covers.
	th := k.NewThread(k.NewProcess("/bin/x", nil, nil), cpu.Context{})
	h := k.StateHash()
	k.EmitPhase(th, kernel.PhKernel, 0, 0, "")
	if k.StateHash() != h {
		t.Error("event-only program subscribed a phase sink")
	}
}

func TestCompileRejectsUnknownSyscall(t *testing.T) {
	prog, err := Parse(`syscall:flurble:exit { count() }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil {
		t.Fatal("Compile accepted unknown syscall name")
	}
	// The syscall_N spelling always resolves.
	prog, err = Parse(`syscall:syscall_500:exit { count() }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err != nil {
		t.Fatalf("syscall_500 spelling rejected: %v", err)
	}
}
