package obsv

import (
	"bytes"
	"strings"
	"testing"

	"k23/internal/canon"
	"k23/internal/kernel"
	"k23/internal/span"
)

// TestJSONLRingHeader: the flight-recorder dump declares its loss — the
// ring record's dropped count must equal the first retained sequence
// number (the ring overwrites oldest-first, so everything below it was
// lost). The validator cross-checks it, so a writer that forgets
// wraparound — or a dump re-sealed after an edit — is rejected.
func TestJSONLRingHeader(t *testing.T) {
	var evs []kernel.Event
	for i := 0; i < 20; i++ {
		e := mkEvent(kernel.EvSignal, 100, 31)
		e.Clock = uint64(i)
		evs = append(evs, e)
	}
	recs := traceOf(8, evs...)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Ring{Machine: "m-03", Recs: recs}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	if want := `{"t":"ring","m":"m-03","dropped":12}` + "\n"; lines[1] != want {
		t.Errorf("ring record = %s, want %s", lines[1], want)
	}
	if n, err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil || n != 8 {
		t.Fatalf("valid dump rejected: n=%d err=%v", n, err)
	}

	// An untagged dump (no machine label) carries the same loss record.
	var plain bytes.Buffer
	if err := WriteJSONL(&plain, Ring{Recs: recs}); err != nil {
		t.Fatal(err)
	}
	if got := strings.SplitN(plain.String(), "\n", 3)[1]; got != `{"t":"ring","dropped":12}` {
		t.Errorf("untagged dump ring record = %s", got)
	}
	if _, err := ValidateJSONL(bytes.NewReader(plain.Bytes())); err != nil {
		t.Fatalf("untagged dump rejected: %v", err)
	}

	// Re-sealed edits to the ring's claims fail the schema check.
	body := strings.Join(lines[1:len(lines)-2], "")
	for _, tamper := range []struct{ name, from, to string }{
		{"understated drop count", `"dropped":12`, `"dropped":11`},
		{"second ring for the machine", "\n{\"t\":\"event\"", "\n" + strings.TrimSuffix(lines[1], "\n") + "\n{\"t\":\"event\""},
	} {
		bad := canon.Seal(Kind, 1, []byte(strings.Replace(body, tamper.from, tamper.to, 1)))
		if _, err := ValidateJSONL(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s accepted", tamper.name)
		}
	}
	// Deleting a record breaks the trailer.
	truncated := strings.Join(append(lines[:len(lines)-3], lines[len(lines)-2:]...), "")
	if _, err := ValidateJSONL(strings.NewReader(truncated)); err == nil {
		t.Error("truncated dump accepted")
	}
}

// TestSpanPrometheus: the span layer's per-(mech, phase) histograms join
// the exposition with cumulative buckets and the shared extra labels.
func TestSpanPrometheus(t *testing.T) {
	b := span.NewBuilder("m0")
	marks := []kernel.PhaseMark{
		{TID: 100, Cycles: 10, Phase: kernel.PhTrap, Num: 1, Site: 0x40},
		{TID: 100, Cycles: 160, Phase: kernel.PhKernel, Num: 1, Site: 0x40},
		{TID: 100, Cycles: 210, Phase: kernel.PhReturn, Num: 1, Site: 0x40},
	}
	for _, m := range marks {
		b.HandlePhase(m)
	}
	sets := []*span.Set{b.Finish()}

	hists := spanPhaseHists(sets)
	if len(hists) != 2 {
		t.Fatalf("got %d (mech, phase) histograms, want 2: %+v", len(hists), hists)
	}
	// No handler span above, so self-time attributes to the kernel.
	if hists[0].Mech != "kernel" || hists[0].Phase != "kernel" || hists[0].Hist.Sum != 50 {
		t.Errorf("first hist = %+v", hists[0])
	}
	if hists[1].Phase != "trap" || hists[1].Hist.Sum != 150 {
		t.Errorf("second hist = %+v", hists[1])
	}

	var buf bytes.Buffer
	WriteSpanPrometheus(&buf, sets, [][2]string{{"variant", "k23-default"}})
	out := buf.String()
	for _, want := range []string{
		"# TYPE k23_span_phase_cost_cycles histogram",
		`k23_span_phase_cost_cycles_count{variant="k23-default",mech="kernel",phase="trap"} 1`,
		`k23_span_phase_cost_cycles_sum{variant="k23-default",mech="kernel",phase="trap"} 150`,
		`k23_span_phase_cost_cycles_sum{variant="k23-default",mech="kernel",phase="kernel"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative and end at the observation count.
	if !strings.Contains(out, "k23_span_phase_cost_cycles_bucket") {
		t.Errorf("exposition has no bucket lines:\n%s", out)
	}
}
