// Package cpu implements the simulated x86-64-flavoured CPU: a
// variable-length byte-encoded instruction set whose critical encodings
// match the real architecture (two-byte SYSCALL 0F 05, SYSENTER 0F 34 and
// CALL-register FF D0+r), a register file with the x86-64 system call ABI,
// an execution engine with cycle accounting, and a per-core instruction
// cache model that exposes the cross-modifying-code hazards the paper's
// pitfall P5 depends on.
package cpu

import (
	"errors"
	"fmt"
)

// Reg names a general-purpose register. The numbering and the system call
// ABI match x86-64: the syscall number travels in RAX, arguments in
// RDI, RSI, RDX, R10, R8, R9; the kernel clobbers RCX and R11.
type Reg uint8

// General-purpose registers.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the number of general-purpose registers.
	NumRegs = 16
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// SyscallArgRegs lists the registers carrying system call arguments, in
// order, per the x86-64 Linux ABI.
var SyscallArgRegs = [6]Reg{RDI, RSI, RDX, R10, R8, R9}

// Op identifies an instruction operation.
type Op uint8

// Instruction operations. Encodings are defined in Decode/EncodeInst; the
// byte-level opcode values for SYSCALL, SYSENTER, CALLREG and NOP are the
// real x86-64 values, so instruction-size arithmetic (2-byte syscall
// replaced by 2-byte call) is faithful to the paper.
const (
	OpInvalid  Op = iota
	OpNop         // 90                    no operation (1 byte)
	OpSyscall     // 0F 05                 system call (2 bytes)
	OpSysenter    // 0F 34                 legacy system call (2 bytes)
	OpCpuid       // 0F A2                 serializing (2 bytes)
	OpMfence      // 0F AE                 serializing fence (2 bytes)
	OpUd2         // 0F 0B                 undefined instruction (2 bytes)
	OpRdtsc       // 0F 31                 read cycle counter into RAX (2 bytes)
	OpHostcall    // 0F FE id32            call registered host function (6 bytes)
	OpWrpkru      // 0F EF                 write RAX to PKRU (2 bytes)
	OpRdpkru      // 0F EE                 read PKRU into RAX (2 bytes)
	OpRdfsbase    // 0F F0 reg             read TLS base into reg (3 bytes)
	OpWrfsbase    // 0F F1 reg             write reg to TLS base (3 bytes)
	OpCallReg     // FF D0+r               call through register (2 bytes)
	OpJmpReg      // FF E0+r               jump through register (2 bytes)
	OpMovImm      // B8 reg imm64          load 64-bit immediate (10 bytes)
	OpMovImm32    // BD reg imm32          load 32-bit immediate, zero-extended (6 bytes)
	OpMovRR       // 89 dst src            register move (3 bytes)
	OpAdd         // 01 dst src            dst += src (3 bytes)
	OpSub         // 29 dst src            dst -= src (3 bytes)
	OpXor         // 31 dst src            dst ^= src (3 bytes)
	OpAnd         // 21 dst src            dst &= src (3 bytes)
	OpOr          // 09 dst src            dst |= src (3 bytes)
	OpMul         // 6B dst src            dst *= src (3 bytes)
	OpAddImm      // 05 reg imm32          reg += signed imm32 (6 bytes)
	OpShl         // 48 reg imm8           reg <<= imm8 (3 bytes)
	OpShr         // 4A reg imm8           reg >>= imm8 (3 bytes)
	OpCmp         // 3B a b                set flags from a-b (3 bytes)
	OpCmpImm      // 3D reg imm32          set flags from reg-imm (6 bytes)
	OpTest        // 85 a b                set flags from a&b (3 bytes)
	OpLoad        // 8B dst base disp32    dst = mem64[base+disp] (7 bytes)
	OpStore       // 88 base src disp32    mem64[base+disp] = src (7 bytes)
	OpLoadB       // 8A dst base disp32    dst = zx(mem8[base+disp]) (7 bytes)
	OpStoreB      // 8C base src disp32    mem8[base+disp] = low8(src) (7 bytes)
	OpStoreW      // 8E base src disp32    mem16[base+disp] = low16(src), atomic (7 bytes)
	OpCall        // E8 rel32              call relative (5 bytes)
	OpJmp         // E9 rel32              jump relative (5 bytes)
	OpJz          // 74 rel32              jump if ZF (5 bytes)
	OpJnz         // 75 rel32              jump if !ZF (5 bytes)
	OpJl          // 7C rel32              jump if SF (signed less) (5 bytes)
	OpJge         // 7D rel32              jump if !SF (5 bytes)
	OpJle         // 7E rel32              jump if ZF||SF (5 bytes)
	OpJg          // 7F rel32              jump if !ZF&&!SF (5 bytes)
	OpRet         // C3                    return (1 byte)
	OpPush        // 50 reg                push register (2 bytes)
	OpPop         // 58 reg                pop register (2 bytes)
	OpHlt         // F4                    halt (1 byte)
	OpInt3        // CC                    breakpoint trap (1 byte)
)

var opNames = map[Op]string{
	OpInvalid: "(invalid)", OpNop: "nop", OpSyscall: "syscall",
	OpSysenter: "sysenter", OpCpuid: "cpuid", OpMfence: "mfence",
	OpUd2: "ud2", OpRdtsc: "rdtsc", OpHostcall: "hostcall",
	OpWrpkru: "wrpkru", OpRdpkru: "rdpkru",
	OpRdfsbase: "rdfsbase", OpWrfsbase: "wrfsbase",
	OpCallReg: "call*", OpJmpReg: "jmp*", OpMovImm: "movabs",
	OpMovImm32: "mov", OpMovRR: "mov", OpAdd: "add", OpSub: "sub",
	OpXor: "xor", OpAnd: "and", OpOr: "or", OpMul: "imul",
	OpAddImm: "add", OpShl: "shl", OpShr: "shr", OpCmp: "cmp",
	OpCmpImm: "cmp", OpTest: "test", OpLoad: "mov", OpStore: "mov",
	OpLoadB: "movzbl", OpStoreB: "movb", OpStoreW: "movw",
	OpCall: "call", OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpJl: "jl", OpJge: "jge", OpJle: "jle", OpJg: "jg",
	OpRet: "ret", OpPush: "push", OpPop: "pop", OpHlt: "hlt", OpInt3: "int3",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Well-known opcode bytes, matching x86-64 where it matters to the paper.
const (
	ByteNop         = 0x90
	BytePrefix0F    = 0x0F
	ByteSyscall2    = 0x05 // second byte of SYSCALL
	ByteSysenter2   = 0x34 // second byte of SYSENTER
	BytePrefixFF    = 0xFF
	ByteCallRegBase = 0xD0 // FF D0+r = call *%r
	ByteJmpRegBase  = 0xE0 // FF E0+r = jmp *%r
	ByteHostcall2   = 0xFE
	SyscallInstLen  = 2 // SYSCALL and SYSENTER are two bytes
	CallRegInstLen  = 2 // CALLREG is two bytes: the rewrite is size-preserving
)

// SyscallBytes is the SYSCALL instruction encoding (0F 05), as on x86-64.
var SyscallBytes = []byte{BytePrefix0F, ByteSyscall2}

// SysenterBytes is the SYSENTER instruction encoding (0F 34).
var SysenterBytes = []byte{BytePrefix0F, ByteSysenter2}

// CallRaxBytes is the `callq *%rax` encoding (FF D0) that zpoline-style
// rewriting substitutes for SYSCALL/SYSENTER.
var CallRaxBytes = []byte{BytePrefixFF, ByteCallRegBase | byte(RAX)}

// Inst is a decoded instruction.
type Inst struct {
	Op  Op
	Len uint8 // encoded length in bytes
	A   Reg   // first operand (dst, or base for stores)
	B   Reg   // second operand (src)
	Imm int64 // immediate / displacement / relative offset / hostcall id
}

// String renders the instruction in AT&T-ish syntax for traces.
func (i Inst) String() string {
	switch i.Op {
	case OpNop, OpSyscall, OpSysenter, OpCpuid, OpMfence, OpUd2, OpRdtsc,
		OpRet, OpHlt, OpInt3, OpWrpkru, OpRdpkru:
		return i.Op.String()
	case OpHostcall:
		return fmt.Sprintf("hostcall %d", i.Imm)
	case OpCallReg, OpJmpReg:
		return fmt.Sprintf("%s%%%s", i.Op, i.A)
	case OpMovImm, OpMovImm32:
		return fmt.Sprintf("%s $%#x, %%%s", i.Op, uint64(i.Imm), i.A)
	case OpMovRR, OpAdd, OpSub, OpXor, OpAnd, OpOr, OpMul, OpCmp, OpTest:
		return fmt.Sprintf("%s %%%s, %%%s", i.Op, i.B, i.A)
	case OpAddImm, OpCmpImm, OpShl, OpShr:
		return fmt.Sprintf("%s $%d, %%%s", i.Op, i.Imm, i.A)
	case OpLoad, OpLoadB:
		return fmt.Sprintf("%s %d(%%%s), %%%s", i.Op, i.Imm, i.B, i.A)
	case OpStore, OpStoreB, OpStoreW:
		return fmt.Sprintf("%s %%%s, %d(%%%s)", i.Op, i.B, i.Imm, i.A)
	case OpCall, OpJmp, OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		return fmt.Sprintf("%s %+d", i.Op, i.Imm)
	case OpPush, OpPop:
		return fmt.Sprintf("%s %%%s", i.Op, i.A)
	default:
		return i.Op.String()
	}
}

// DecodeError reports an undecodable byte sequence. It is a value, so
// returning one does not allocate.
type DecodeError struct {
	Byte byte
}

func (e DecodeError) Error() string {
	return fmt.Sprintf("cpu: cannot decode opcode byte %#02x", e.Byte)
}

// MaxInstLen is the longest instruction encoding (MOVIMM: 10 bytes).
const MaxInstLen = 10

// ErrTruncated reports that more bytes are required to decode the
// instruction. It is a sentinel (allocation-free): the fetch path probes
// Decode incrementally on hot paths.
var ErrTruncated = errors.New("cpu: truncated instruction")

// lenFromFirst maps a first opcode byte to its total encoded length.
// 0 means the second byte is needed; -1 means undecodable.
var lenFromFirst [256]int8

// lenFromSecond maps (first, second) byte pairs for the 0F and FF
// prefixes. 0 entries are undecodable.
var lenFromSecond0F [256]int8
var lenFromSecondFF [256]int8

func init() {
	for i := range lenFromFirst {
		lenFromFirst[i] = -1
	}
	set := func(b byte, n int8) { lenFromFirst[b] = n }
	set(ByteNop, 1)
	set(BytePrefix0F, 0)
	set(BytePrefixFF, 0)
	set(0xB8, 10)
	set(0xBD, 6)
	for _, b := range []byte{0x89, 0x01, 0x29, 0x31, 0x21, 0x09, 0x6B, 0x3B, 0x85} {
		set(b, 3)
	}
	set(0x05, 6)
	set(0x3D, 6)
	set(0x48, 3)
	set(0x4A, 3)
	for _, b := range []byte{0x8B, 0x8A, 0x88, 0x8C, 0x8E} {
		set(b, 7)
	}
	for _, b := range []byte{0xE8, 0xE9, 0x74, 0x75, 0x7C, 0x7D, 0x7E, 0x7F} {
		set(b, 5)
	}
	set(0xC3, 1)
	set(0x50, 2)
	set(0x58, 2)
	set(0xF4, 1)
	set(0xCC, 1)

	for _, b := range []byte{ByteSyscall2, ByteSysenter2, 0xA2, 0xAE, 0x0B, 0x31, 0xEF, 0xEE} {
		lenFromSecond0F[b] = 2
	}
	lenFromSecond0F[0xF0] = 3
	lenFromSecond0F[0xF1] = 3
	lenFromSecond0F[ByteHostcall2] = 6
	for r := byte(0); r < NumRegs; r++ {
		lenFromSecondFF[ByteCallRegBase|r] = 2
		lenFromSecondFF[ByteJmpRegBase|r] = 2
	}
}

// EncodedLen returns the total encoded length implied by the first (and,
// for prefixed encodings, second) byte: n > 0 on success, 0 with
// needSecond=true when b1 is required but have < 2, and -1 for
// undecodable encodings.
func EncodedLen(b0 byte, b1 byte, have int) (n int, needSecond bool) {
	l := lenFromFirst[b0]
	if l > 0 {
		return int(l), false
	}
	if l < 0 {
		return -1, false
	}
	if have < 2 {
		return 0, true
	}
	var l2 int8
	if b0 == BytePrefix0F {
		l2 = lenFromSecond0F[b1]
	} else {
		l2 = lenFromSecondFF[b1]
	}
	if l2 == 0 {
		return -1, false
	}
	return int(l2), false
}

// regRegOps and rel32Ops give the Op of each register-register and
// rel32 opcode byte.
var (
	regRegOps = [256]Op{
		0x89: OpMovRR, 0x01: OpAdd, 0x29: OpSub, 0x31: OpXor,
		0x21: OpAnd, 0x09: OpOr, 0x6B: OpMul, 0x3B: OpCmp, 0x85: OpTest,
	}
	rel32Ops = [256]Op{
		0xE8: OpCall, 0xE9: OpJmp, 0x74: OpJz, 0x75: OpJnz,
		0x7C: OpJl, 0x7D: OpJge, 0x7E: OpJle, 0x7F: OpJg,
	}
)

// Decode decodes one instruction from b. It needs at most MaxInstLen
// bytes; fewer may suffice. Returns a DecodeError for undefined
// encodings and ErrTruncated for short input.
func Decode(b []byte) (Inst, error) {
	if len(b) == 0 {
		return Inst{}, ErrTruncated
	}
	need := func(n int) error {
		if len(b) < n {
			return ErrTruncated
		}
		return nil
	}
	reg := func(i int) (Reg, error) {
		if b[i] >= NumRegs {
			return 0, DecodeError{Byte: b[i]}
		}
		return Reg(b[i]), nil
	}
	imm32 := func(i int) int64 {
		return int64(int32(uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24))
	}
	imm64 := func(i int) int64 {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(b[i+k]) << (8 * k)
		}
		return int64(v)
	}

	switch b[0] {
	case ByteNop:
		return Inst{Op: OpNop, Len: 1}, nil
	case BytePrefix0F:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		switch b[1] {
		case ByteSyscall2:
			return Inst{Op: OpSyscall, Len: 2}, nil
		case ByteSysenter2:
			return Inst{Op: OpSysenter, Len: 2}, nil
		case 0xA2:
			return Inst{Op: OpCpuid, Len: 2}, nil
		case 0xAE:
			return Inst{Op: OpMfence, Len: 2}, nil
		case 0x0B:
			return Inst{Op: OpUd2, Len: 2}, nil
		case 0x31:
			return Inst{Op: OpRdtsc, Len: 2}, nil
		case 0xEF:
			return Inst{Op: OpWrpkru, Len: 2}, nil
		case 0xEE:
			return Inst{Op: OpRdpkru, Len: 2}, nil
		case 0xF0, 0xF1:
			if err := need(3); err != nil {
				return Inst{}, err
			}
			r, err := reg(2)
			if err != nil {
				return Inst{}, err
			}
			op := OpRdfsbase
			if b[1] == 0xF1 {
				op = OpWrfsbase
			}
			return Inst{Op: op, Len: 3, A: r}, nil
		case ByteHostcall2:
			if err := need(6); err != nil {
				return Inst{}, err
			}
			return Inst{Op: OpHostcall, Len: 6, Imm: imm32(2)}, nil
		default:
			return Inst{}, DecodeError{Byte: b[1]}
		}
	case BytePrefixFF:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		switch {
		case b[1] >= ByteCallRegBase && b[1] < ByteCallRegBase+NumRegs:
			return Inst{Op: OpCallReg, Len: 2, A: Reg(b[1] - ByteCallRegBase)}, nil
		case b[1] >= ByteJmpRegBase && b[1] < ByteJmpRegBase+NumRegs:
			return Inst{Op: OpJmpReg, Len: 2, A: Reg(b[1] - ByteJmpRegBase)}, nil
		default:
			return Inst{}, DecodeError{Byte: b[1]}
		}
	case 0xB8: // MOVIMM reg, imm64
		if err := need(10); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMovImm, Len: 10, A: r, Imm: imm64(2)}, nil
	case 0xBD: // MOVIMM32 reg, imm32
		if err := need(6); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpMovImm32, Len: 6, A: r, Imm: int64(uint32(imm32(2)))}, nil
	case 0x89, 0x01, 0x29, 0x31, 0x21, 0x09, 0x6B, 0x3B, 0x85:
		if err := need(3); err != nil {
			return Inst{}, err
		}
		a, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		bb, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: regRegOps[b[0]], Len: 3, A: a, B: bb}, nil
	case 0x05: // ADDI reg, imm32
		if err := need(6); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpAddImm, Len: 6, A: r, Imm: imm32(2)}, nil
	case 0x3D: // CMPI reg, imm32
		if err := need(6); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		return Inst{Op: OpCmpImm, Len: 6, A: r, Imm: imm32(2)}, nil
	case 0x48, 0x4A: // SHL/SHR reg, imm8
		if err := need(3); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		op := OpShl
		if b[0] == 0x4A {
			op = OpShr
		}
		return Inst{Op: op, Len: 3, A: r, Imm: int64(b[2])}, nil
	case 0x8B, 0x8A: // LOAD/LOADB dst, [base+disp32]
		if err := need(7); err != nil {
			return Inst{}, err
		}
		dst, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		base, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		op := OpLoad
		if b[0] == 0x8A {
			op = OpLoadB
		}
		return Inst{Op: op, Len: 7, A: dst, B: base, Imm: imm32(3)}, nil
	case 0x88, 0x8C, 0x8E: // STORE/STOREB/STOREW [base+disp32], src
		if err := need(7); err != nil {
			return Inst{}, err
		}
		base, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		src, err := reg(2)
		if err != nil {
			return Inst{}, err
		}
		op := OpStore
		switch b[0] {
		case 0x8C:
			op = OpStoreB
		case 0x8E:
			op = OpStoreW
		}
		return Inst{Op: op, Len: 7, A: base, B: src, Imm: imm32(3)}, nil
	case 0xE8, 0xE9, 0x74, 0x75, 0x7C, 0x7D, 0x7E, 0x7F:
		if err := need(5); err != nil {
			return Inst{}, err
		}
		return Inst{Op: rel32Ops[b[0]], Len: 5, Imm: imm32(1)}, nil
	case 0xC3:
		return Inst{Op: OpRet, Len: 1}, nil
	case 0x50, 0x58:
		if err := need(2); err != nil {
			return Inst{}, err
		}
		r, err := reg(1)
		if err != nil {
			return Inst{}, err
		}
		op := OpPush
		if b[0] == 0x58 {
			op = OpPop
		}
		return Inst{Op: op, Len: 2, A: r}, nil
	case 0xF4:
		return Inst{Op: OpHlt, Len: 1}, nil
	case 0xCC:
		return Inst{Op: OpInt3, Len: 1}, nil
	default:
		return Inst{}, DecodeError{Byte: b[0]}
	}
}

// EncodeInst encodes inst into bytes. It is the inverse of Decode and
// panics on malformed instructions (encoding happens at assembly time,
// where malformed input is a programming error).
func EncodeInst(inst Inst) []byte {
	imm32 := func(v int64) []byte {
		u := uint32(int32(v))
		return []byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)}
	}
	imm64 := func(v int64) []byte {
		u := uint64(v)
		out := make([]byte, 8)
		for k := 0; k < 8; k++ {
			out[k] = byte(u >> (8 * k))
		}
		return out
	}
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	switch inst.Op {
	case OpNop:
		return []byte{ByteNop}
	case OpSyscall:
		return append([]byte(nil), SyscallBytes...)
	case OpSysenter:
		return append([]byte(nil), SysenterBytes...)
	case OpCpuid:
		return []byte{BytePrefix0F, 0xA2}
	case OpMfence:
		return []byte{BytePrefix0F, 0xAE}
	case OpUd2:
		return []byte{BytePrefix0F, 0x0B}
	case OpRdtsc:
		return []byte{BytePrefix0F, 0x31}
	case OpWrpkru:
		return []byte{BytePrefix0F, 0xEF}
	case OpRdpkru:
		return []byte{BytePrefix0F, 0xEE}
	case OpRdfsbase:
		return []byte{BytePrefix0F, 0xF0, byte(inst.A)}
	case OpWrfsbase:
		return []byte{BytePrefix0F, 0xF1, byte(inst.A)}
	case OpHostcall:
		return cat([]byte{BytePrefix0F, ByteHostcall2}, imm32(inst.Imm))
	case OpCallReg:
		return []byte{BytePrefixFF, ByteCallRegBase | byte(inst.A)}
	case OpJmpReg:
		return []byte{BytePrefixFF, ByteJmpRegBase | byte(inst.A)}
	case OpMovImm:
		return cat([]byte{0xB8, byte(inst.A)}, imm64(inst.Imm))
	case OpMovImm32:
		return cat([]byte{0xBD, byte(inst.A)}, imm32(inst.Imm))
	case OpMovRR:
		return []byte{0x89, byte(inst.A), byte(inst.B)}
	case OpAdd:
		return []byte{0x01, byte(inst.A), byte(inst.B)}
	case OpSub:
		return []byte{0x29, byte(inst.A), byte(inst.B)}
	case OpXor:
		return []byte{0x31, byte(inst.A), byte(inst.B)}
	case OpAnd:
		return []byte{0x21, byte(inst.A), byte(inst.B)}
	case OpOr:
		return []byte{0x09, byte(inst.A), byte(inst.B)}
	case OpMul:
		return []byte{0x6B, byte(inst.A), byte(inst.B)}
	case OpCmp:
		return []byte{0x3B, byte(inst.A), byte(inst.B)}
	case OpTest:
		return []byte{0x85, byte(inst.A), byte(inst.B)}
	case OpAddImm:
		return cat([]byte{0x05, byte(inst.A)}, imm32(inst.Imm))
	case OpCmpImm:
		return cat([]byte{0x3D, byte(inst.A)}, imm32(inst.Imm))
	case OpShl:
		return []byte{0x48, byte(inst.A), byte(inst.Imm)}
	case OpShr:
		return []byte{0x4A, byte(inst.A), byte(inst.Imm)}
	case OpLoad:
		return cat([]byte{0x8B, byte(inst.A), byte(inst.B)}, imm32(inst.Imm))
	case OpLoadB:
		return cat([]byte{0x8A, byte(inst.A), byte(inst.B)}, imm32(inst.Imm))
	case OpStore:
		return cat([]byte{0x88, byte(inst.A), byte(inst.B)}, imm32(inst.Imm))
	case OpStoreB:
		return cat([]byte{0x8C, byte(inst.A), byte(inst.B)}, imm32(inst.Imm))
	case OpStoreW:
		return cat([]byte{0x8E, byte(inst.A), byte(inst.B)}, imm32(inst.Imm))
	case OpCall:
		return cat([]byte{0xE8}, imm32(inst.Imm))
	case OpJmp:
		return cat([]byte{0xE9}, imm32(inst.Imm))
	case OpJz:
		return cat([]byte{0x74}, imm32(inst.Imm))
	case OpJnz:
		return cat([]byte{0x75}, imm32(inst.Imm))
	case OpJl:
		return cat([]byte{0x7C}, imm32(inst.Imm))
	case OpJge:
		return cat([]byte{0x7D}, imm32(inst.Imm))
	case OpJle:
		return cat([]byte{0x7E}, imm32(inst.Imm))
	case OpJg:
		return cat([]byte{0x7F}, imm32(inst.Imm))
	case OpRet:
		return []byte{0xC3}
	case OpPush:
		return []byte{0x50, byte(inst.A)}
	case OpPop:
		return []byte{0x58, byte(inst.A)}
	case OpHlt:
		return []byte{0xF4}
	case OpInt3:
		return []byte{0xCC}
	default:
		panic(fmt.Sprintf("cpu: cannot encode %v", inst.Op))
	}
}

// InstCost returns the base cycle cost of executing the instruction.
// Serializing instructions are deliberately expensive, as on real
// hardware. SYSCALL/SYSENTER kernel-side costs are accounted by the
// kernel's CostModel, not here.
func InstCost(op Op) uint64 {
	switch op {
	case OpNop:
		// NOPs retire 4+ per cycle on modern superscalar cores; the
		// trampoline sled is effectively free, as zpoline observes.
		return 0
	case OpCpuid, OpMfence:
		return 30
	case OpRdtsc:
		return 12
	case OpMul:
		return 3
	case OpLoad, OpStore, OpLoadB, OpStoreB, OpStoreW:
		return 1 // L1 hit, store buffer
	case OpCall, OpCallReg, OpRet:
		return 2
	case OpWrpkru, OpRdpkru:
		return 20
	default:
		return 1
	}
}
