package probe

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"k23/internal/canon"
	"k23/internal/kernel"
)

func sampleSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	e := mustEngine(t, `syscall:*:exit { hist(cycles) by (name); count() }
chaos:inject { emit() }`)
	e.HandleEvent(exitEvent(1, 8, 100, 1))
	e.HandleEvent(exitEvent(0, 8, 300, 1))
	e.HandleEvent(kernel.Event{Kind: kernel.EvChaos, Num: 1, Seq: 9, Clock: 40, Detail: "short write"})
	return e.Snapshot()
}

func TestJSONLRoundTrip(t *testing.T) {
	s := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, s)
	}
	// Re-export is byte-identical: the encoding is canonical.
	var buf2 bytes.Buffer
	if err := got.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-export not byte-identical")
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != len(s.Rows)+len(s.Emits) {
		t.Errorf("validated %d records, want %d", n, len(s.Rows)+len(s.Emits))
	}
}

// TestEmitCarriesSiteAndArgs: an emitted enter record keeps the call's
// site and six argument words, and they survive the artifact round
// trip; a record without them writes neither field.
func TestEmitCarriesSiteAndArgs(t *testing.T) {
	e := mustEngine(t, `syscall:write:entry { emit() }
syscall:write:exit { emit() }`)
	e.HandleEvent(kernel.Event{Kind: kernel.EvEnter, Num: kernel.SysWrite, PID: 1, TID: 100, Site: 0x401005, Args: [6]uint64{1, 0x5000, 12}})
	e.HandleEvent(kernel.Event{Kind: kernel.EvExit, Num: kernel.SysWrite, PID: 1, TID: 100, Ret: 12})
	var buf bytes.Buffer
	if err := e.Snapshot().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	if want := `"site":4198405,"args":[1,20480,12,0,0,0]`; !strings.Contains(lines[2], want) {
		t.Errorf("enter emit lacks %s: %s", want, lines[2])
	}
	if strings.Contains(lines[3], `"site"`) || strings.Contains(lines[3], `"args"`) {
		t.Errorf("exit emit writes an empty site or args: %s", lines[3])
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if em := got.Emits[0]; em.Site != 0x401005 || em.Args != [6]uint64{1, 0x5000, 12} {
		t.Errorf("read back site %#x args %v", em.Site, em.Args)
	}
}

func TestJSONLDetectsTampering(t *testing.T) {
	s := sampleSnapshot(t)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	edited := strings.Join(lines, "\n")
	edited = strings.Replace(edited, `"count":1`, `"count":2`, 1)
	if _, err := ReadJSONL(strings.NewReader(edited)); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Errorf("edited count not caught: %v", err)
	}

	truncated := strings.Join(lines[:len(lines)-1], "\n")
	if _, err := ReadJSONL(strings.NewReader(truncated)); err == nil {
		t.Error("truncation not caught")
	}

	if _, err := ReadJSONL(strings.NewReader(lines[1])); err == nil || !strings.Contains(err.Error(), "header") {
		t.Errorf("missing header not caught: %v", err)
	}

	// Reordered rows and emits are rejected even when the trailer is
	// recomputed to match.
	rows := strings.Join([]string{lines[1], lines[3], lines[2]}, "\n")
	if _, err := ReadJSONL(bytes.NewReader(canon.Seal(Kind, 1, []byte(rows)))); err == nil || !strings.Contains(err.Error(), "order") {
		t.Errorf("reordered rows not caught: %v", err)
	}
	emits := lines[1] + `
{"t":"emit","m":"b","ord":5,"probe":1,"s":"ev","seq":9,"clock":40,"pid":0,"tid":0,"kind":"chaos","num":1}
{"t":"emit","m":"a","ord":3,"probe":1,"s":"ev","seq":9,"clock":40,"pid":0,"tid":0,"kind":"chaos","num":1}`
	if _, err := ReadJSONL(bytes.NewReader(canon.Seal(Kind, 1, []byte(emits)))); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Errorf("out-of-order emits not caught: %v", err)
	}
}
