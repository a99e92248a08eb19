package canon

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

type rec struct {
	X int `json:"x"`
}

// TestDigest pins the FNV-1a 64 reference vectors.
func TestDigest(t *testing.T) {
	if got := Digest(nil); got != 0xcbf29ce484222325 {
		t.Errorf("Digest(\"\") = %#x", got)
	}
	if got := Digest([]byte("a")); got != 0xaf63dc4c8601ec8c {
		t.Errorf("Digest(\"a\") = %#x", got)
	}
}

// TestWriterReadRoundTrip: the writer's exact bytes, a hash-only writer
// and Seal agree on the trailer, and Read hands back every record.
func TestWriterReadRoundTrip(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b, "k", 3)
	w.Record("a", &rec{X: 1})
	w.Record("b", struct{}{})
	sum := w.Sum()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	body := `{"t":"a","x":1}` + "\n" + `{"t":"b"}` + "\n"
	want := `{"t":"canon","kind":"k","v":3}` + "\n" + body +
		fmt.Sprintf(`{"t":"end","records":2,"hash":"%016x"}`, sum) + "\n"
	if b.String() != want {
		t.Fatalf("artifact:\n%s\nwant:\n%s", b.String(), want)
	}
	if sum != Digest([]byte(body)) {
		t.Errorf("trailer hash %#x is not the body digest %#x", sum, Digest([]byte(body)))
	}
	h := NewHasher(NewHash())
	h.Record("a", &rec{X: 1})
	h.Record("b", struct{}{})
	if h.Sum() != sum {
		t.Errorf("hash-only writer sum %#x, want %#x", h.Sum(), sum)
	}
	if got := Seal("k", 3, []byte(body)); !bytes.Equal(got, b.Bytes()) {
		t.Errorf("Seal:\n%s\nwant:\n%s", got, b.Bytes())
	}
	var tags []string
	err := Read(bytes.NewReader(b.Bytes()), "k", 3, func(tag string, line []byte) error {
		tags = append(tags, tag)
		return nil
	})
	if err != nil || strings.Join(tags, ",") != "a,b" {
		t.Fatalf("Read: tags %v, err %v", tags, err)
	}
	if err := NewWriter(io.Discard, "k", 1).Record("x", 5); err == nil {
		t.Error("a non-object record was written")
	}
}

// TestReadRejects: every envelope violation is an error naming the kind.
func TestReadRejects(t *testing.T) {
	good := string(Seal("k", 1, []byte(`{"t":"a","x":1}`)))
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"no header", `{"t":"a","x":1}` + "\n"},
		{"wrong kind", strings.Replace(good, `"kind":"k"`, `"kind":"j"`, 1)},
		{"wrong version", strings.Replace(good, `"v":1`, `"v":2`, 1)},
		{"untagged line", strings.Replace(good, `{"t":"a",`, `{"x":0,"t":"a",`, 1)},
		{"blank line", strings.Replace(good, "\n", "\n\n", 1)},
		{"edited body", strings.Replace(good, `"x":1`, `"x":2`, 1)},
		{"miscounted", strings.Replace(good, `"records":1`, `"records":2`, 1)},
		{"after trailer", good + `{"t":"a","x":1}` + "\n"},
		{"no trailer", good[:strings.Index(good, `{"t":"end"`)]},
	} {
		err := Read(strings.NewReader(tc.in), "k", 1, func(string, []byte) error { return nil })
		if err == nil || !strings.HasPrefix(err.Error(), "k: ") {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
	sentinel := errors.New("bad record")
	err := Read(strings.NewReader(good), "k", 1, func(string, []byte) error { return sentinel })
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("decoder error not wrapped with its line: %v", err)
	}
}
