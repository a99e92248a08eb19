package machine

import "strconv"

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash is a resumable FNV-1a accumulator: its value is the hash so far,
// so a recorder can save it at a checkpoint and restore it before
// re-executing, finishing with the same hash as the full run. It is an
// io.Writer.
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
		v ^= Hash(c)
		v *= fnvPrime
	}
	*h = v
	return len(p), nil
}

func (h *Hash) writeString(s string) {
	v := *h
	for i := 0; i < len(s); i++ {
		v ^= Hash(s[i])
		v *= fnvPrime
	}
	*h = v
}

// u64 folds each value in as 8 little-endian bytes.
func (h *Hash) u64(vs ...uint64) {
	v := *h
	for _, x := range vs {
		for i := 0; i < 8; i++ {
			v ^= Hash(byte(x >> (8 * i)))
			v *= fnvPrime
		}
	}
	*h = v
}

// Event folds in one kernel event's canonical line,
// "%d/%d %s %d %#x %#x %s\n" over (pid, tid, kind, num, site, ret,
// detail) — the one definition of the event hash, shared by unrecorded
// runs, the recorder and recording validation. It formats into a stack
// buffer, so hashing an event allocates nothing.
func (h *Hash) Event(pid, tid int, kind string, num, site, ret uint64, detail string) {
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(pid), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ' ')
	h.Write(b)
	h.writeString(kind)
	b = append(buf[:0], ' ')
	b = strconv.AppendUint(b, num, 10)
	b = append(b, " 0x"...)
	b = strconv.AppendUint(b, site, 16)
	b = append(b, " 0x"...)
	b = strconv.AppendUint(b, ret, 16)
	b = append(b, ' ')
	h.Write(b)
	h.writeString(detail)
	*h = (*h ^ '\n') * fnvPrime
}
