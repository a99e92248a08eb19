package machine

import (
	"strconv"

	"k23/internal/canon"
)

// Hash is a resumable FNV-1a accumulator (canon.Hash): its value is the
// hash so far, so a recorder can save it at a checkpoint and restore it
// before re-executing, finishing with the same hash as the full run.
type Hash canon.Hash

// NewHash returns the empty-input hash.
func NewHash() Hash { return Hash(canon.NewHash()) }

// Event folds in one kernel event's canonical line,
// "%d/%d %s %d %#x %#x %s\n" over (pid, tid, kind, num, site, ret,
// detail) — the one definition of the event hash, shared by unrecorded
// runs, the recorder and recording validation. It formats into a stack
// buffer, so hashing an event allocates nothing.
func (h *Hash) Event(pid, tid int, kind string, num, site, ret uint64, detail string) {
	c := (*canon.Hash)(h)
	var buf [64]byte
	b := strconv.AppendInt(buf[:0], int64(pid), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ' ')
	c.Write(b)
	c.WriteString(kind)
	b = append(buf[:0], ' ')
	b = strconv.AppendUint(b, num, 10)
	b = append(b, " 0x"...)
	b = strconv.AppendUint(b, site, 16)
	b = append(b, " 0x"...)
	b = strconv.AppendUint(b, ret, 16)
	b = append(b, ' ')
	c.Write(b)
	c.WriteString(detail)
	c.WriteByte('\n')
}
