// Package disasm implements static disassembly over the simulated ISA —
// the component zpoline-style load-time rewriting depends on, together
// with its well-documented failure modes (paper §4.2, §4.3):
//
//   - Linear sweep decodes sequentially from the region start. Embedded
//     data (jump tables, literals) desynchronizes it: subsequent decodes
//     may start mid-instruction, so real SYSCALL sites are overlooked
//     (P2a) and spurious ones are "found" inside immidiates or data
//     (P3a).
//   - On an undecodable byte it resynchronizes by skipping one byte, as
//     objdump-style tools do, which is precisely what makes the
//     misidentifications silent.
//
// The package also provides FindByteSites, the pattern-scan lower bound
// (every 0F 05 / 0F 34 byte pair), used by tests as a misidentification
// oracle.
package disasm

import (
	"sort"

	"k23/internal/cpu"
)

// SiteKind distinguishes SYSCALL from SYSENTER sites.
type SiteKind uint8

// Site kinds.
const (
	KindSyscall SiteKind = iota
	KindSysenter
)

// Site is a located system call instruction.
type Site struct {
	Addr uint64
	Kind SiteKind
}

// Result summarizes one linear sweep.
type Result struct {
	Sites []Site
	// Resyncs counts undecodable bytes skipped (desync indicators).
	Resyncs int
	// Decoded counts successfully decoded instructions.
	Decoded int
}

// LinearSweep disassembles code (mapped at base) from its first byte and
// collects every decoded SYSCALL/SYSENTER. It is deliberately faithful to
// the limitations of static disassembly rather than to ground truth.
func LinearSweep(code []byte, base uint64) Result {
	var res Result
	off := 0
	for off < len(code) {
		inst, err := cpu.Decode(code[off:])
		if err != nil {
			// Resynchronize one byte forward, as linear disassemblers
			// do. Anything decoded after this point may be skewed.
			res.Resyncs++
			off++
			continue
		}
		res.Decoded++
		switch inst.Op {
		case cpu.OpSyscall:
			res.Sites = append(res.Sites, Site{Addr: base + uint64(off), Kind: KindSyscall})
		case cpu.OpSysenter:
			res.Sites = append(res.Sites, Site{Addr: base + uint64(off), Kind: KindSysenter})
		}
		off += int(inst.Len)
	}
	return res
}

// FindByteSites scans for raw 0F 05 / 0F 34 byte pairs regardless of
// instruction boundaries. This over-approximates: it reports every
// partial-instruction and embedded-data occurrence too. The difference
// between FindByteSites and ground truth is the raw material of pitfalls
// P3a/P3b.
func FindByteSites(code []byte, base uint64) []Site {
	var out []Site
	for i := 0; i+1 < len(code); i++ {
		if code[i] != cpu.BytePrefix0F {
			continue
		}
		switch code[i+1] {
		case cpu.ByteSyscall2:
			out = append(out, Site{Addr: base + uint64(i), Kind: KindSyscall})
		case cpu.ByteSysenter2:
			out = append(out, Site{Addr: base + uint64(i), Kind: KindSysenter})
		}
	}
	return out
}

// SymbolSweep disassembles each inter-symbol range independently,
// starting at known function entries instead of the region base. On
// symbol-rich images this avoids the desynchronization that makes plain
// linear sweep misidentify sites: decoding re-anchors at every symbol, so
// embedded data between functions cannot skew an entire region. It is
// the static half of the paper's proposed dynamic+static offline
// analysis (§7).
//
// symOffsets are offsets of symbols within code; they need not be
// sorted. Only sites strictly inside a symbol-delimited range are
// reported.
func SymbolSweep(code []byte, base uint64, symOffsets []uint64) []Site {
	offs := append([]uint64(nil), symOffsets...)
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	var out []Site
	seen := map[uint64]bool{}
	for i, start := range offs {
		if start >= uint64(len(code)) {
			continue
		}
		end := uint64(len(code))
		if i+1 < len(offs) && offs[i+1] < end {
			end = offs[i+1]
		}
		off := start
		for off < end {
			inst, err := cpu.Decode(code[off:end])
			if err != nil {
				// Unlike the region-wide sweep, a symbol-anchored range
				// that stops decoding is abandoned rather than
				// resynchronized: no guessing inside functions.
				break
			}
			if inst.Op == cpu.OpSyscall || inst.Op == cpu.OpSysenter {
				addr := base + off
				if !seen[addr] {
					seen[addr] = true
					kind := KindSyscall
					if inst.Op == cpu.OpSysenter {
						kind = KindSysenter
					}
					out = append(out, Site{Addr: addr, Kind: kind})
				}
			}
			off += uint64(inst.Len)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Diff partitions found sites against ground truth, yielding the
// overlooked (P2a) and misidentified (P3a) sets.
func Diff(found []Site, truth []uint64) (correct, misidentified []Site, overlooked []uint64) {
	truthSet := make(map[uint64]bool, len(truth))
	for _, a := range truth {
		truthSet[a] = true
	}
	foundSet := make(map[uint64]bool, len(found))
	for _, s := range found {
		foundSet[s.Addr] = true
		if truthSet[s.Addr] {
			correct = append(correct, s)
		} else {
			misidentified = append(misidentified, s)
		}
	}
	for _, a := range truth {
		if !foundSet[a] {
			overlooked = append(overlooked, a)
		}
	}
	return correct, misidentified, overlooked
}
