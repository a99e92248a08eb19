// Package canon is the one envelope every JSONL artifact shares: the
// flight-recorder trace, audit report, span trace, probe aggregation,
// SFIP policy and report, and rr recording (DESIGN.md §2k).
//
//	{"t":"canon","kind":"rr","v":3}           header: kind and version
//	{"t":"spec",...}                          body: one tagged record per line
//	{"t":"end","records":N,"hash":"%016x"}    trailer: count and FNV-1a
//
// The trailer hash is FNV-1a over every body line including its
// newline, so an edited, dropped, added or reordered line is rejected
// before any per-kind decoder's value is returned. The package also
// holds the repo's single FNV-1a implementation.
package canon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash is a resumable FNV-1a accumulator: its value is the hash so far,
// so it can be saved and restored mid-stream. It is an io.Writer.
type Hash uint64

// NewHash returns the empty-input hash.
func NewHash() Hash { return fnvOffset }

// Digest is a one-shot FNV-1a over b.
func Digest(b []byte) uint64 {
	h := NewHash()
	h.Write(b)
	return uint64(h)
}

// Write folds p into the hash; it never fails.
func (h *Hash) Write(p []byte) (int, error) {
	v := *h
	for _, c := range p {
		v = (v ^ Hash(c)) * fnvPrime
	}
	*h = v
	return len(p), nil
}

// WriteString folds s into the hash; it never fails.
func (h *Hash) WriteString(s string) (int, error) {
	v := *h
	for i := 0; i < len(s); i++ {
		v = (v ^ Hash(s[i])) * fnvPrime
	}
	*h = v
	return len(s), nil
}

// WriteByte folds c into the hash; it never fails.
func (h *Hash) WriteByte(c byte) error {
	*h = (*h ^ Hash(c)) * fnvPrime
	return nil
}

// Uint64 folds x in as 8 little-endian bytes.
func (h *Hash) Uint64(x uint64) {
	v := *h
	for i := 0; i < 8; i++ {
		v = (v ^ Hash(byte(x>>(8*i)))) * fnvPrime
	}
	*h = v
}

// maxLine bounds one artifact line; longer lines fail Read.
const maxLine = 1 << 24

type header struct {
	T    string `json:"t"`
	Kind string `json:"kind"`
	V    int    `json:"v"`
}

type trailer struct {
	Records int    `json:"records"`
	Hash    string `json:"hash"`
}

// Writer writes one artifact. Records are encoded straight into the
// buffered output with the tag spliced in front, hashed as they go out.
type Writer struct {
	bw  *bufio.Writer // nil for a hash-only Writer
	enc *json.Encoder
	tag string
	h   Hash
	n   int
	err error
}

// sink receives each encoded object from the Writer's encoder, which
// hands over one whole value and its newline per Write call.
type sink Writer

func (s *sink) Write(b []byte) (int, error) {
	if len(b) < 3 || b[0] != '{' {
		return 0, fmt.Errorf("canon: %q record is not a JSON object", s.tag)
	}
	w := (*Writer)(s)
	w.put(`{"t":"`)
	w.put(s.tag)
	if b[1] == '}' {
		w.put(`"`)
	} else {
		w.put(`",`)
	}
	w.h.Write(b[1:])
	if w.bw != nil {
		w.bw.Write(b[1:]) // errors stick in bw and surface at Close
	}
	return len(b), nil
}

func (w *Writer) put(s string) {
	w.h.WriteString(s)
	if w.bw != nil {
		w.bw.WriteString(s)
	}
}

// NewWriter starts an artifact of kind and version on w.
func NewWriter(w io.Writer, kind string, version int) *Writer {
	cw := NewHasher(NewHash())
	cw.bw = bufio.NewWriter(w)
	hdr, err := json.Marshal(header{T: "canon", Kind: kind, V: version})
	cw.err = err
	cw.bw.Write(hdr)
	cw.bw.WriteByte('\n')
	return cw
}

// NewHasher returns a Writer that writes nothing: its Sum is h
// continued over the lines its records would have, the hash a trailer
// carries when h is NewHash().
func NewHasher(h Hash) *Writer {
	w := &Writer{h: h}
	w.enc = json.NewEncoder((*sink)(w))
	return w
}

// Record writes v, which must encode as a JSON object, as one
// {"t":"<tag>",...} line. It returns the Writer's first error.
func (w *Writer) Record(tag string, v any) error {
	if w.err == nil {
		w.tag = tag
		w.err = w.enc.Encode(v)
		w.n++
	}
	return w.err
}

// Sum is the hash of the records written so far.
func (w *Writer) Sum() uint64 { return uint64(w.h) }

// Close writes the trailer and flushes, returning the first error.
func (w *Writer) Close() error {
	if w.err == nil {
		fmt.Fprintf(w.bw, `{"t":"end","records":%d,"hash":"%016x"}`+"\n", w.n, uint64(w.h))
	}
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	return w.err
}

// Header returns the kind and version named by an artifact's first line.
func Header(first []byte) (kind string, version int, err error) {
	var hdr header
	if json.Unmarshal(first, &hdr) != nil || hdr.T != "canon" {
		return "", 0, fmt.Errorf("canon: no artifact header")
	}
	return hdr.Kind, hdr.V, nil
}

// Read reads one artifact of kind and version, calling fn with each
// body record's tag and whole line (the line is reused after fn
// returns). It fails unless the header matches, every line is a tagged
// record, and the last line is a trailer whose count and hash match the
// body. Callers decode into a private value and return it only when
// Read returns nil.
func Read(r io.Reader, kind string, version int, fn func(tag string, line []byte) error) error {
	sc := newScanner(r)
	var hdr header
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &hdr) != nil || hdr.T != "canon" {
		return fmt.Errorf("%s: line 1: not an artifact header", kind)
	}
	if hdr.Kind != kind || hdr.V != version {
		return fmt.Errorf("%s: artifact is %s v%d, want %s v%d", kind, hdr.Kind, hdr.V, kind, version)
	}
	h, n, tag := NewHash(), 0, ""
	for lineNo := 2; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		rest, ok := bytes.CutPrefix(line, []byte(`{"t":"`))
		end := bytes.IndexByte(rest, '"')
		if !ok || end < 0 || end+1 >= len(rest) || rest[end+1] != ',' && rest[end+1] != '}' {
			return fmt.Errorf("%s: line %d: not a tagged record", kind, lineNo)
		}
		if string(rest[:end]) != tag {
			tag = string(rest[:end]) // records of one tag run together: one copy per run
		}
		if tag != "end" {
			h.Write(line)
			h.WriteByte('\n')
			n++
			if err := fn(tag, line); err != nil {
				return fmt.Errorf("%s: line %d: %w", kind, lineNo, err)
			}
			continue
		}
		var t trailer
		if err := json.Unmarshal(line, &t); err != nil {
			return fmt.Errorf("%s: line %d: bad trailer: %v", kind, lineNo, err)
		}
		if sc.Scan() {
			return fmt.Errorf("%s: line %d: record after the trailer", kind, lineNo+1)
		}
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %v", kind, err)
		}
		if got := fmt.Sprintf("%016x", uint64(h)); t.Records != n || t.Hash != got {
			return fmt.Errorf("%s: body is %d records hashing to %s, trailer says %d and %s (edited or corrupted)",
				kind, n, got, t.Records, t.Hash)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %v", kind, err)
	}
	return fmt.Errorf("%s: missing trailer (truncated?)", kind)
}

// Seal frames raw body lines as an artifact of kind and version with a
// matching trailer — for tests and fuzzers that build artifacts by hand.
func Seal(kind string, version int, body []byte) []byte {
	var out bytes.Buffer
	w := NewWriter(&out, kind, version)
	sc := newScanner(bytes.NewReader(body))
	for sc.Scan() {
		w.put(string(sc.Bytes()) + "\n")
		w.n++
	}
	w.Close()
	return out.Bytes()
}

// newScanner splits on '\n' alone (a '\r' stays in the line and in the
// hash), with lines bounded by maxLine.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	return sc
}
