// Package asm is the assembler for the simulated platform. It provides a
// builder API used to author the libc analogue, the workload applications,
// the interposer runtime stubs (trampolines, signal handlers), and the
// pitfall proof-of-concept programs.
//
// Conventions:
//   - Labels beginning with '.' are image-private; all other labels are
//     exported to the dynamic symbol namespace.
//   - Cross-image calls use the PLT-like sequence emitted by CallSym: a
//     MOVIMM into R12 (patched by a load-time relocation) followed by
//     CALL *%r12. R12 is therefore the linker scratch register and is
//     not preserved across calls.
//   - The entry point of an executable is the "_start" label.
package asm

import (
	"fmt"

	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/mem"
)

// Builder assembles one image.
type Builder struct {
	path     string
	sections []*SectionBuilder
	needed   []string
	initSym  string
	initHost func(h any, base uint64) error
}

// NewBuilder starts an image for the given canonical path.
func NewBuilder(path string) *Builder {
	return &Builder{path: path}
}

// Needed declares a dependency on another image (DT_NEEDED analogue).
func (b *Builder) Needed(paths ...string) *Builder {
	b.needed = append(b.needed, paths...)
	return b
}

// Init declares the image's init function symbol (DT_INIT analogue).
func (b *Builder) Init(symbol string) *Builder {
	b.initSym = symbol
	return b
}

// InitHost declares a host-space constructor run by the loader after
// mapping and relocation (used by interposer libraries whose setup logic
// lives in Go).
func (b *Builder) InitHost(fn func(h any, base uint64) error) *Builder {
	b.initHost = fn
	return b
}

// Section opens (or returns) a named section with the given permission.
func (b *Builder) Section(name string, perm mem.Perm) *SectionBuilder {
	for _, s := range b.sections {
		if s.name == name {
			return s
		}
	}
	s := &SectionBuilder{b: b, name: name, perm: perm}
	b.sections = append(b.sections, s)
	return s
}

// Text returns the canonical executable section.
func (b *Builder) Text() *SectionBuilder { return b.Section(".text", mem.PermRX) }

// Data returns the canonical writable data section.
func (b *Builder) Data() *SectionBuilder { return b.Section(".data", mem.PermRW) }

// Rodata returns the canonical read-only data section.
func (b *Builder) Rodata() *SectionBuilder { return b.Section(".rodata", mem.PermRead) }

type labelDef struct {
	section *SectionBuilder
	off     uint64
}

type branchFixup struct {
	section *SectionBuilder
	immOff  uint64 // offset of the rel32 operand within the section
	nextOff uint64 // offset of the next instruction (branch base)
	target  string
}

type relocFixup struct {
	section *SectionBuilder
	off     uint64 // offset of the imm64 within the section
	symbol  string
}

// SectionBuilder emits code or data into one section.
type SectionBuilder struct {
	b    *Builder
	name string
	perm mem.Perm
	buf  []byte

	labels    map[string]uint64
	branches  []branchFixup
	relocs    []relocFixup
	trueSites []uint64
}

// Off returns the current emission offset within the section.
func (s *SectionBuilder) Off() uint64 { return uint64(len(s.buf)) }

// Label defines a label at the current offset.
func (s *SectionBuilder) Label(name string) *SectionBuilder {
	if s.labels == nil {
		s.labels = make(map[string]uint64)
	}
	if _, dup := s.labels[name]; dup {
		panic(fmt.Sprintf("asm: duplicate label %q in %s", name, s.name))
	}
	s.labels[name] = s.Off()
	return s
}

// Raw emits raw bytes (embedded data, torn encodings, jump tables).
func (s *SectionBuilder) Raw(b ...byte) *SectionBuilder {
	s.buf = append(s.buf, b...)
	return s
}

// Bytes emits a byte slice.
func (s *SectionBuilder) Bytes(b []byte) *SectionBuilder {
	s.buf = append(s.buf, b...)
	return s
}

// U64 emits a little-endian 64-bit value.
func (s *SectionBuilder) U64(v uint64) *SectionBuilder {
	for k := 0; k < 8; k++ {
		s.buf = append(s.buf, byte(v>>(8*k)))
	}
	return s
}

// CString emits a NUL-terminated string.
func (s *SectionBuilder) CString(str string) *SectionBuilder {
	s.buf = append(s.buf, []byte(str)...)
	s.buf = append(s.buf, 0)
	return s
}

// Space emits n zero bytes.
func (s *SectionBuilder) Space(n int) *SectionBuilder {
	s.buf = append(s.buf, make([]byte, n)...)
	return s
}

// Align pads with NOPs (text) or zeros (data) to the given alignment.
func (s *SectionBuilder) Align(n uint64) *SectionBuilder {
	pad := byte(0)
	if s.perm&mem.PermExec != 0 {
		pad = cpu.ByteNop
	}
	for s.Off()%n != 0 {
		s.buf = append(s.buf, pad)
	}
	return s
}

// AddrOf records an 8-byte slot at the current offset that will receive
// the absolute address of symbol at load time.
func (s *SectionBuilder) AddrOf(symbol string) *SectionBuilder {
	s.relocs = append(s.relocs, relocFixup{section: s, off: s.Off(), symbol: symbol})
	return s.U64(0)
}

// inst emits a fully formed instruction.
func (s *SectionBuilder) inst(i cpu.Inst) *SectionBuilder {
	s.buf = append(s.buf, cpu.EncodeInst(i)...)
	return s
}

// Syscall emits the two-byte SYSCALL instruction and records it as a
// ground-truth site.
func (s *SectionBuilder) Syscall() *SectionBuilder {
	s.trueSites = append(s.trueSites, s.Off())
	return s.inst(cpu.Inst{Op: cpu.OpSyscall})
}

// Sysenter emits the two-byte SYSENTER instruction and records it as a
// ground-truth site.
func (s *SectionBuilder) Sysenter() *SectionBuilder {
	s.trueSites = append(s.trueSites, s.Off())
	return s.inst(cpu.Inst{Op: cpu.OpSysenter})
}

// Cpuid emits the serializing CPUID instruction.
func (s *SectionBuilder) Cpuid() *SectionBuilder { return s.inst(cpu.Inst{Op: cpu.OpCpuid}) }

// Wrpkru emits WRPKRU (PKRU <- RAX).
func (s *SectionBuilder) Wrpkru() *SectionBuilder { return s.inst(cpu.Inst{Op: cpu.OpWrpkru}) }

// Rdfsbase emits RDFSBASE reg (reg <- TLS base).
func (s *SectionBuilder) Rdfsbase(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpRdfsbase, A: r})
}

// Wrfsbase emits WRFSBASE reg (TLS base <- reg).
func (s *SectionBuilder) Wrfsbase(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpWrfsbase, A: r})
}

// Hostcall emits a HOSTCALL with the given id.
func (s *SectionBuilder) Hostcall(id int32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpHostcall, Imm: int64(id)})
}

// Ret emits RET.
func (s *SectionBuilder) Ret() *SectionBuilder { return s.inst(cpu.Inst{Op: cpu.OpRet}) }

// MovImm emits a 64-bit immediate load.
func (s *SectionBuilder) MovImm(r cpu.Reg, v int64) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpMovImm, A: r, Imm: v})
}

// MovImm32 emits a 32-bit immediate load (zero-extended).
func (s *SectionBuilder) MovImm32(r cpu.Reg, v uint32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpMovImm32, A: r, Imm: int64(v)})
}

// MovImmSym emits a 64-bit immediate load whose value is the absolute
// address of symbol, patched at load time.
func (s *SectionBuilder) MovImmSym(r cpu.Reg, symbol string) *SectionBuilder {
	// The imm64 operand starts 2 bytes into the MOVIMM encoding.
	s.relocs = append(s.relocs, relocFixup{section: s, off: s.Off() + 2, symbol: symbol})
	return s.inst(cpu.Inst{Op: cpu.OpMovImm, A: r, Imm: 0})
}

// Mov emits a register-to-register move (dst <- src).
func (s *SectionBuilder) Mov(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpMovRR, A: dst, B: src})
}

// Add emits dst += src.
func (s *SectionBuilder) Add(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpAdd, A: dst, B: src})
}

// Sub emits dst -= src.
func (s *SectionBuilder) Sub(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpSub, A: dst, B: src})
}

// Xor emits dst ^= src.
func (s *SectionBuilder) Xor(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpXor, A: dst, B: src})
}

// And emits dst &= src.
func (s *SectionBuilder) And(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpAnd, A: dst, B: src})
}

// Mul emits dst *= src.
func (s *SectionBuilder) Mul(dst, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpMul, A: dst, B: src})
}

// AddImm emits reg += imm.
func (s *SectionBuilder) AddImm(r cpu.Reg, imm int32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpAddImm, A: r, Imm: int64(imm)})
}

// CmpImm emits flags <- reg - imm.
func (s *SectionBuilder) CmpImm(r cpu.Reg, imm int32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpCmpImm, A: r, Imm: int64(imm)})
}

// Test emits flags <- a & b.
func (s *SectionBuilder) Test(a, b cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpTest, A: a, B: b})
}

// Load emits dst <- mem64[base+disp].
func (s *SectionBuilder) Load(dst, base cpu.Reg, disp int32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpLoad, A: dst, B: base, Imm: int64(disp)})
}

// LoadB emits dst <- zero-extended mem8[base+disp].
func (s *SectionBuilder) LoadB(dst, base cpu.Reg, disp int32) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpLoadB, A: dst, B: base, Imm: int64(disp)})
}

// Store emits mem64[base+disp] <- src.
func (s *SectionBuilder) Store(base cpu.Reg, disp int32, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpStore, A: base, B: src, Imm: int64(disp)})
}

// StoreB emits mem8[base+disp] <- low byte of src.
func (s *SectionBuilder) StoreB(base cpu.Reg, disp int32, src cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpStoreB, A: base, B: src, Imm: int64(disp)})
}

// Push emits a register push.
func (s *SectionBuilder) Push(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpPush, A: r})
}

// Pop emits a register pop.
func (s *SectionBuilder) Pop(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpPop, A: r})
}

// CallReg emits CALL *%r.
func (s *SectionBuilder) CallReg(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpCallReg, A: r})
}

// JmpReg emits JMP *%r.
func (s *SectionBuilder) JmpReg(r cpu.Reg) *SectionBuilder {
	return s.inst(cpu.Inst{Op: cpu.OpJmpReg, A: r})
}

// branch emits a rel32 control transfer to a same-section label.
func (s *SectionBuilder) branch(op cpu.Op, label string) *SectionBuilder {
	s.branches = append(s.branches, branchFixup{
		section: s,
		immOff:  s.Off() + 1,
		nextOff: s.Off() + 5,
		target:  label,
	})
	return s.inst(cpu.Inst{Op: op, Imm: 0})
}

// Call emits a relative call to a same-section label.
func (s *SectionBuilder) Call(label string) *SectionBuilder { return s.branch(cpu.OpCall, label) }

// Jmp emits an unconditional jump to a same-section label.
func (s *SectionBuilder) Jmp(label string) *SectionBuilder { return s.branch(cpu.OpJmp, label) }

// Jz, Jnz, Jl, Jle emit conditional jumps to same-section labels.
func (s *SectionBuilder) Jz(label string) *SectionBuilder  { return s.branch(cpu.OpJz, label) }
func (s *SectionBuilder) Jnz(label string) *SectionBuilder { return s.branch(cpu.OpJnz, label) }
func (s *SectionBuilder) Jl(label string) *SectionBuilder  { return s.branch(cpu.OpJl, label) }
func (s *SectionBuilder) Jle(label string) *SectionBuilder { return s.branch(cpu.OpJle, label) }

// CallSym emits the PLT-like cross-image call sequence: R12 <- &symbol
// (load-time relocation), CALL *%r12.
func (s *SectionBuilder) CallSym(symbol string) *SectionBuilder {
	s.MovImmSym(cpu.R12, symbol)
	return s.CallReg(cpu.R12)
}

// Build assembles the image: sections are laid out page-aligned in
// creation order, labels become symbols, same-section branches are
// resolved, and symbol references become load-time relocations.
func (b *Builder) build() (*image.Image, error) {
	im := &image.Image{
		Path:       b.path,
		Symbols:    make(map[string]uint64),
		Needed:     append([]string(nil), b.needed...),
		InitSymbol: b.initSym,
		InitHost:   b.initHost,
	}

	// Lay out sections.
	base := make(map[*SectionBuilder]uint64)
	var off uint64
	for _, s := range b.sections {
		base[s] = off
		size := (uint64(len(s.buf)) + mem.PageSize - 1) / mem.PageSize * mem.PageSize
		if size == 0 {
			size = mem.PageSize
		}
		// Data's capacity runs, zero-filled, to the end of the section's
		// last page, so the loader can map it as shared pages.
		data := make([]byte, len(s.buf), size)
		copy(data, s.buf)
		im.Sections = append(im.Sections, image.Section{
			Name: s.name,
			Off:  off,
			Size: size,
			Data: data,
			Perm: s.perm,
		})
		off += size
	}

	// Collect symbols.
	for _, s := range b.sections {
		for name, lo := range s.labels {
			if _, dup := im.Symbols[name]; dup {
				return nil, fmt.Errorf("asm %s: duplicate label %q across sections", b.path, name)
			}
			im.Symbols[name] = base[s] + lo
		}
	}

	// Resolve same-section branches.
	for _, s := range b.sections {
		sec, _ := im.Section(s.name)
		for _, br := range s.branches {
			target, ok := s.labels[br.target]
			if !ok {
				return nil, fmt.Errorf("asm %s: undefined branch target %q in %s", b.path, br.target, s.name)
			}
			rel := int64(target) - int64(br.nextOff)
			if rel > 1<<31-1 || rel < -(1<<31) {
				return nil, fmt.Errorf("asm %s: branch to %q out of rel32 range", b.path, br.target)
			}
			u := uint32(int32(rel))
			sec.Data[br.immOff] = byte(u)
			sec.Data[br.immOff+1] = byte(u >> 8)
			sec.Data[br.immOff+2] = byte(u >> 16)
			sec.Data[br.immOff+3] = byte(u >> 24)
		}
	}

	// Emit relocations (image offsets).
	for _, s := range b.sections {
		for _, r := range s.relocs {
			im.Relocs = append(im.Relocs, image.Reloc{
				Off:    base[s] + r.off,
				Symbol: r.symbol,
			})
		}
	}

	// Record ground-truth syscall sites as image offsets.
	for _, s := range b.sections {
		for _, off := range s.trueSites {
			im.TrueSites = append(im.TrueSites, base[s]+off)
		}
	}

	if entry, ok := im.Symbols["_start"]; ok {
		im.Entry = entry
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}

// MustBuild is Build that panics on error (assembly-time programming
// errors in static program definitions).
func (b *Builder) MustBuild() *image.Image {
	im, err := b.build()
	if err != nil {
		panic(err)
	}
	return im
}

// IsExported reports whether a label name is exported to the dynamic
// namespace (does not begin with '.').
func IsExported(name string) bool {
	return len(name) > 0 && name[0] != '.'
}
