package cpu

import (
	"bytes"
	"testing"
)

// fuzzSeeds are byte patterns with a history of confusing x86
// interposition rewriters: the P3a embedded-data blob (a jump table that
// happens to contain SYSCALL bytes) and the P2a MOV whose immediate
// embeds 0F 05, plus the valid encodings the repository generates.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0xAB, 0x0F, 0x05, 0xAB})                                     // P3a blob
	f.Add([]byte{0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}) // P2a mov imm
	f.Add([]byte{0x0F, 0x05})                                                 // SYSCALL
	f.Add([]byte{0x0F, 0x34})                                                 // SYSENTER
	f.Add([]byte{0xFF, 0xD0})                                                 // CALL *%rax
	f.Add([]byte{ByteNop})
	f.Add([]byte{0xF4})       // HLT
	f.Add([]byte{0x0F})       // truncated two-byte opcode
	f.Add([]byte{})           // empty
	f.Add([]byte{0x75, 0xFF}) // truncated jnz rel32
	f.Add(asm(Inst{Op: OpMovImm, A: RDI, Imm: -1}))
	f.Add(asm(Inst{Op: OpAddImm, A: RCX, Imm: 1 << 30}))
	f.Add(asm(Inst{Op: OpStore, A: RAX, B: RBX, Imm: 0x40}))
	f.Add(asm(Inst{Op: OpHostcall, Imm: 77}))
	// Patterns surfaced by the shared-state audit: the fleet's
	// wedged-guest spin loop, trampoline/breakpoint bytes, and sequences
	// that straddle a decode-cache line when rewritten in place.
	f.Add([]byte{0xEB, 0xFE})                         // jmp .-2 (spin)
	f.Add([]byte{0xCC})                               // int3 trampoline byte
	f.Add([]byte{0x0F, 0x0B})                         // UD2
	f.Add([]byte{0xCD, 0x80})                         // legacy int 0x80 gate
	f.Add([]byte{0x90, 0x0F, 0x05, 0xEB, 0xFE, 0xCC}) // nop;syscall;spin;int3
}

// FuzzDecode: Decode must never panic on arbitrary bytes, and whenever it
// succeeds the result must satisfy basic invariants and round-trip
// through EncodeInst back to the exact input bytes.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := Decode(data)
		if err != nil {
			return
		}
		n := int(inst.Len)
		if n <= 0 || n > MaxInstLen || n > len(data) {
			t.Fatalf("Decode(% x) = %+v: bad length", data, inst)
		}
		re := EncodeInst(inst)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("round-trip mismatch: Decode(% x) = %+v, Encode = % x", data[:n], inst, re)
		}
		// Decoding the canonical re-encoding must be a fixed point.
		inst2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-Decode(% x) failed: %v", re, err)
		}
		if inst2 != inst {
			t.Fatalf("re-Decode(% x) = %+v, want %+v", re, inst2, inst)
		}
	})
}

// FuzzEncodedLen: the length pre-decoder must never panic, must agree
// with Decode on every successful decode, and must never report a length
// beyond MaxInstLen.
func FuzzEncodedLen(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var b1 byte
		if len(data) > 1 {
			b1 = data[1]
		}
		n, needSecond := EncodedLen(data[0], b1, len(data))
		if needSecond {
			if len(data) >= 2 {
				t.Fatalf("EncodedLen(% x) still wants a second byte with %d available", data[:2], len(data))
			}
			return
		}
		if n > MaxInstLen {
			t.Fatalf("EncodedLen(%#x %#x) = %d > MaxInstLen", data[0], b1, n)
		}
		inst, err := Decode(data)
		if err != nil {
			return
		}
		if n != int(inst.Len) {
			t.Fatalf("EncodedLen says %d, Decode says %d for % x", n, inst.Len, data[:inst.Len])
		}
	})
}
