package disasm

import (
	"testing"

	"k23/internal/cpu"
)

// FuzzLinearSweep: the sweep must terminate and never panic on arbitrary
// bytes, make forward progress accounting (decoded instructions plus
// resyncs cover the buffer exactly), never report a site outside the
// buffer, and never find fewer candidate pairs than it reports sites —
// every reported site must be a literal 0F 05 / 0F 34 pair, since those
// opcodes decode from exactly those bytes.
func FuzzLinearSweep(f *testing.F) {
	// The P3a embedded-data blob and the P2a immediate-embedded syscall,
	// the two patterns the paper shows desynchronizing linear sweeps.
	f.Add([]byte{0xAB, 0x0F, 0x05, 0xAB}, uint64(0x1000))
	f.Add([]byte{0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}, uint64(0x401000))
	f.Add([]byte{0x0F, 0x05, 0x0F, 0x34, 0xF4}, uint64(0))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x0F}, uint64(1<<40))
	// From the shared-state audit: the fleet's spin loop and trampoline
	// bytes interleaved with syscall sites.
	f.Add([]byte{0xEB, 0xFE, 0x0F, 0x05}, uint64(0x2000))
	f.Add([]byte{0xCC, 0x0F, 0x05, 0xCC, 0x0F, 0x34}, uint64(0x3000))
	f.Fuzz(func(t *testing.T, code []byte, base uint64) {
		res := LinearSweep(code, base)
		if res.Decoded < 0 || res.Resyncs < 0 {
			t.Fatalf("negative counters: %+v", res)
		}
		if res.Resyncs > len(code) {
			t.Fatalf("%d resyncs for %d bytes", res.Resyncs, len(code))
		}
		byteSites := FindByteSites(code, base)
		if len(res.Sites) > len(byteSites) {
			t.Fatalf("sweep found %d sites but only %d raw 0F05/0F34 pairs exist",
				len(res.Sites), len(byteSites))
		}
		raw := make(map[uint64]SiteKind, len(byteSites))
		for _, s := range byteSites {
			raw[s.Addr] = s.Kind
		}
		for _, s := range res.Sites {
			// Offset arithmetic, so huge fuzzed bases that wrap around
			// the 64-bit space don't produce spurious failures.
			if off := s.Addr - base; off+1 >= uint64(len(code)) {
				t.Fatalf("site %#x at offset %d outside %d-byte buffer", s.Addr, off, len(code))
			}
			if k, ok := raw[s.Addr]; !ok || k != s.Kind {
				t.Fatalf("site %#x kind %d has no matching raw byte pair", s.Addr, s.Kind)
			}
		}
		// The sweep must consume the whole buffer: decoded lengths plus
		// single-byte resyncs account for every byte.
		var consumed int
		off := 0
		for off < len(code) {
			inst, err := cpu.Decode(code[off:])
			if err != nil {
				off++
			} else {
				off += int(inst.Len)
			}
			consumed++
			if consumed > len(code) {
				t.Fatal("sweep does not make forward progress")
			}
		}
		if got := res.Decoded + res.Resyncs; got != consumed {
			t.Fatalf("decoded+resyncs = %d, want %d steps", got, consumed)
		}
	})
}
