package rr

import (
	"testing"

	"k23/internal/kernel"
)

// handBuilt is a synthetic event stream with known query answers.
func handBuilt() *Recording {
	return &Recording{
		Events: []EventRec{
			{Seq: 1, Kind: "enter", Num: kernel.SysWrite, Args: []uint64{1, 0x100, 5}, Clock: 100},
			{Seq: 2, Kind: "interposed", Num: kernel.SysWrite, Detail: "rewritten", Clock: 110},
			{Seq: 3, Kind: "enter", Num: kernel.SysWrite, Args: []uint64{2, 0x200, 7}, Clock: 120},
			{Seq: 4, Kind: "enter", Num: kernel.SysSendto, Args: []uint64{1, 0x300, 9}, Clock: 130},
			{Seq: 5, Kind: "interposed", Num: kernel.SysRead, Detail: "sud", Clock: 140},
			{Seq: 6, Kind: "enter", Num: kernel.SysRead, Args: []uint64{1, 0x400, 3}, Clock: 150},
			{Seq: 7, Kind: "enter", Num: kernel.SysWrite, Args: []uint64{1, 0x500, 2}, Clock: 160},
		},
	}
}

func TestLastWriteToFD(t *testing.T) {
	r := handBuilt()
	cases := []struct {
		fd      int
		before  uint64
		wantSeq uint64 // 0 = nil
	}{
		{1, 100, 7}, // everything before seq 100: last write-family on fd 1 is seq 7
		{1, 7, 4},   // before seq 7: the sendto at seq 4 (reads don't count)
		{1, 4, 1},   // before seq 4: the write at seq 1
		{1, 1, 0},   // nothing before seq 1
		{2, 100, 3}, // fd 2: only the write at seq 3
		{3, 100, 0}, // fd never written
	}
	for _, c := range cases {
		got := r.LastWriteToFD(c.fd, c.before)
		switch {
		case c.wantSeq == 0 && got != nil:
			t.Errorf("LastWriteToFD(%d, %d) = seq %d, want nil", c.fd, c.before, got.Seq)
		case c.wantSeq != 0 && got == nil:
			t.Errorf("LastWriteToFD(%d, %d) = nil, want seq %d", c.fd, c.before, c.wantSeq)
		case c.wantSeq != 0 && got.Seq != c.wantSeq:
			t.Errorf("LastWriteToFD(%d, %d) = seq %d, want %d", c.fd, c.before, got.Seq, c.wantSeq)
		}
	}
}

func TestLastTrapByMech(t *testing.T) {
	r := handBuilt()
	if got := r.LastTrapByMech("sud", 200); got == nil || got.Seq != 5 {
		t.Errorf("LastTrapByMech(sud, 200) = %+v, want seq 5", got)
	}
	if got := r.LastTrapByMech("sud", 140); got != nil {
		// Clock 140 is not before tick 140.
		t.Errorf("LastTrapByMech(sud, 140) = seq %d, want nil", got.Seq)
	}
	if got := r.LastTrapByMech("rewritten", 200); got == nil || got.Seq != 2 {
		t.Errorf("LastTrapByMech(rewritten, 200) = %+v, want seq 2", got)
	}
	if got := r.LastTrapByMech("ptrace", 200); got != nil {
		t.Errorf("LastTrapByMech(ptrace, 200) = seq %d, want nil", got.Seq)
	}
}

func TestLastSyscallBefore(t *testing.T) {
	r := handBuilt()
	if got := r.LastSyscallBefore(kernel.SysRead, 100); got == nil || got.Seq != 6 {
		t.Errorf("LastSyscallBefore(read, 100) = %+v, want seq 6", got)
	}
	if got := r.LastSyscallBefore(kernel.SysMmap, 100); got != nil {
		t.Errorf("LastSyscallBefore(mmap, 100) = seq %d, want nil", got.Seq)
	}
}
