package pitfalls

import (
	"strings"
	"testing"

	"k23/internal/interpose/variants"
	"k23/internal/kernel"
)

// specByName fetches a variant spec.
func specByName(t *testing.T, name string) variants.Spec {
	t.Helper()
	s, ok := variants.ByName(name)
	if !ok {
		t.Fatalf("no variant %q", name)
	}
	return s
}

// expectTable3 mirrors the paper's Table 3: pitfall -> interposer ->
// handled. "zpoline" here is zpoline-ultra (the published system includes
// its NULL-execution check); "k23" is k23-ultra+.
var expectTable3 = map[string]map[string]bool{
	"P1a": {"zpoline-ultra": false, "lazypoline": false, "k23-ultra+": true},
	"P1b": {"zpoline-ultra": true, "lazypoline": false, "k23-ultra+": true},
	"P2a": {"zpoline-ultra": false, "lazypoline": true, "k23-ultra+": true},
	"P2b": {"zpoline-ultra": false, "lazypoline": false, "k23-ultra+": true},
	"P3a": {"zpoline-ultra": false, "lazypoline": true, "k23-ultra+": true},
	"P3b": {"zpoline-ultra": true, "lazypoline": false, "k23-ultra+": true},
	"P4a": {"zpoline-ultra": true, "lazypoline": false, "k23-ultra+": true},
	"P4b": {"zpoline-ultra": false, "lazypoline": true, "k23-ultra+": true},
	"P5":  {"zpoline-ultra": true, "lazypoline": false, "k23-ultra+": true},
}

func runPoC(t *testing.T, id, variant string, opts ...kernel.Option) (bool, string) {
	t.Helper()
	for _, poc := range All() {
		if poc.ID != id {
			continue
		}
		handled, detail, err := poc.Run(specByName(t, variant), opts...)
		if err != nil {
			t.Fatalf("%s under %s: %v", id, variant, err)
		}
		return handled, detail
	}
	t.Fatalf("no PoC %q", id)
	return false, ""
}

// One test per pitfall, asserting all three Table 3 columns.
func testPitfall(t *testing.T, id string) {
	for variant, want := range expectTable3[id] {
		variant, want := variant, want
		t.Run(variant, func(t *testing.T) {
			got, detail := runPoC(t, id, variant)
			if got != want {
				t.Errorf("%s under %s: handled=%v, want %v (%s)", id, variant, got, want, detail)
			}
		})
	}
}

func TestP1aMatrix(t *testing.T) { testPitfall(t, "P1a") }
func TestP1bMatrix(t *testing.T) { testPitfall(t, "P1b") }
func TestP2aMatrix(t *testing.T) { testPitfall(t, "P2a") }
func TestP2bMatrix(t *testing.T) { testPitfall(t, "P2b") }
func TestP3aMatrix(t *testing.T) { testPitfall(t, "P3a") }
func TestP3bMatrix(t *testing.T) { testPitfall(t, "P3b") }
func TestP4aMatrix(t *testing.T) { testPitfall(t, "P4a") }
func TestP4bMatrix(t *testing.T) { testPitfall(t, "P4b") }
func TestP5Matrix(t *testing.T)  { testPitfall(t, "P5") }

// TestP5CachedModeParity runs the P5 PoC — the deterministic torn-write
// delay scan plus the stale-I-cache and lost-permission probes — with the
// decoded-instruction cache enabled and disabled, for every Table 3
// interposer. Verdict AND detail (which embeds the observed CMC activity)
// must be identical: P5 is precisely the pitfall a decode cache could
// silently paper over, because its whole point is executing stale bytes.
func TestP5CachedModeParity(t *testing.T) {
	for variant := range expectTable3["P5"] {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			run := func(cacheOff bool) (bool, string) {
				return runPoC(t, "P5", variant, kernel.WithDecodeCacheOff(cacheOff))
			}
			onHandled, onDetail := run(false)
			offHandled, offDetail := run(true)
			if onHandled != offHandled {
				t.Errorf("P5 verdict differs under %s: cached=%v uncached=%v",
					variant, onHandled, offHandled)
			}
			if onDetail != offDetail {
				t.Errorf("P5 detail differs under %s:\n  cached: %s\nuncached: %s",
					variant, onDetail, offDetail)
			}
			if want := expectTable3["P5"][variant]; onHandled != want {
				t.Errorf("P5 under %s with cache: handled=%v, want %v (Table 3)",
					variant, onHandled, want)
			}
		})
	}
}

func TestFormatMatrix(t *testing.T) {
	res := []Result{
		{Pitfall: "P1a", Interposer: "zpoline-ultra", Handled: false},
		{Pitfall: "P1a", Interposer: "k23-ultra+", Handled: true},
	}
	out := FormatMatrix(res)
	if !strings.Contains(out, "P1a") || !strings.Contains(out, "no") || !strings.Contains(out, "YES") {
		t.Fatalf("matrix format:\n%s", out)
	}
}

// TestFormatAuditMatrix pins the audit parity grid byte for byte on a
// synthetic cell set: agreeing cells, one disagreement marked "*", a
// missing cell rendered "?", and both summary lines.
func TestFormatAuditMatrix(t *testing.T) {
	cell := func(pitfall, interposer string, handled, audit bool) AuditCell {
		return AuditCell{Result: Result{Pitfall: pitfall, Interposer: interposer, Handled: handled}, AuditHandled: audit}
	}
	agree := []AuditCell{
		cell("P1a", "zpoline-ultra", false, false),
		cell("P1a", "k23-ultra+", true, true),
		cell("P4b", "k23-ultra+", true, true),
	}
	want := "" +
		"       zpoline-ultra    k23-ultra+      \n" +
		"P1a    no               YES             \n" +
		"P4b    ?                YES             \n" +
		"\naudit parity: every verdict independently rediscovered from the syscall streams\n"
	if got := FormatAuditMatrix(agree); got != want {
		t.Errorf("agreeing grid:\n got: %q\nwant: %q", got, want)
	}
	disagree := append(agree[:2:2], cell("P4b", "zpoline-ultra", false, true), agree[2])
	want = "" +
		"       zpoline-ultra    k23-ultra+      \n" +
		"P1a    no               YES             \n" +
		"P4b    no*              YES             \n" +
		"\naudit parity: 1 cell(s) marked * — audit verdict disagrees with the PoC\n"
	if got := FormatAuditMatrix(disagree); got != want {
		t.Errorf("disagreeing grid:\n got: %q\nwant: %q", got, want)
	}
}
