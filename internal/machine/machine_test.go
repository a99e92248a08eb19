package machine

import (
	"fmt"
	"testing"

	"k23/internal/canon"
)

// TestSeedPayload: the seed-derived payload is deterministic per seed
// and distinct across seeds.
func TestSeedPayload(t *testing.T) {
	a := seedPayload(42, 64)
	b := seedPayload(42, 64)
	c := seedPayload(43, 64)
	if string(a) != string(b) {
		t.Error("same seed produced different payloads")
	}
	if string(a) == string(c) {
		t.Error("different seeds produced identical payloads")
	}
	for i, ch := range a {
		if ch < 'A' || ch > 'Z' {
			t.Fatalf("payload byte %d out of range: %q", i, ch)
		}
	}
}

// TestEventLineMatchesFormat pins Hash.Event to the canonical fmt line
// the event hash has always been defined by, including zero and
// extreme values, and checks it allocates nothing.
func TestEventLineMatchesFormat(t *testing.T) {
	cases := []struct {
		pid, tid       int
		kind           string
		num, site, ret uint64
		detail         string
	}{
		{1, 101, "enter", 39, 0x401000, 0, ""},
		{0, 0, "exit", 0, 0, 0, "x"},
		{12, 1203, "interposed", 500, 0x7fff_ffff_f000, ^uint64(0), "rewrite"},
		{1 << 40, -1, "signal", ^uint64(0), ^uint64(0), 0xdeadbeef, "SIGSYS at site"},
	}
	for _, c := range cases {
		want := canon.NewHash()
		fmt.Fprintf(&want, "%d/%d %s %d %#x %#x %s\n", c.pid, c.tid, c.kind, c.num, c.site, c.ret, c.detail)
		got := NewHash()
		got.Event(c.pid, c.tid, c.kind, c.num, c.site, c.ret, c.detail)
		if got != Hash(want) {
			t.Errorf("%+v: Event hashes to %#x, fmt line to %#x", c, uint64(got), uint64(want))
		}
	}
	h := NewHash()
	if n := testing.AllocsPerRun(100, func() {
		h.Event(3, 301, "enter", 1, 0x401234, 0, "detail")
	}); n != 0 {
		t.Errorf("Event allocates %.0f times per call", n)
	}
}
