package interpose

import (
	"bytes"
	"fmt"

	"k23/internal/cpu"
	"k23/internal/image"
	"k23/internal/kernel"
	"k23/internal/loader"
	"k23/internal/mem"
)

// The interposer setup steps the library constructors share. Each
// interposer keeps only what differs: its checks, its mark order, its
// hostcall costs and how it loads the PKRU.

// TrampolineSize is the page-0 trampoline's nop sled: a rewritten site's
// syscall number (0..511) is its landing offset, and the springboard to
// the interposer's entry stub sits at offset 512.
const TrampolineSize = 512

const protRWX = kernel.ProtRead | kernel.ProtWrite | kernel.ProtExec

// MapTrampoline maps the page-0 trampoline on the init thread: the nop
// sled plus a springboard to entry, then a fresh protection key on the
// page (PKU-XOM). The caller denies data access to the key in its PKRU;
// instruction fetches stay allowed — faithful PKU semantics, and the
// root cause of P4a in checkless variants.
func MapTrampoline(ih *loader.InitHandle, entry uint64) (key uint64, err error) {
	ret, err := ih.Sys(kernel.SysMmap, 0, mem.PageSize, protRWX, kernel.MapFixed)
	if err != nil || ret != 0 {
		return 0, fmt.Errorf("trampoline mmap -> %#x, %v", ret, err)
	}
	tramp := bytes.Repeat([]byte{cpu.ByteNop}, TrampolineSize)
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpMovImm, A: cpu.R11, Imm: int64(entry)})...)
	tramp = append(tramp, cpu.EncodeInst(cpu.Inst{Op: cpu.OpJmpReg, A: cpu.R11})...)
	if err := ih.T.Core.StoreAsSelf(0, tramp); err != nil {
		return 0, err
	}
	if key, err = ih.Sys(kernel.SysPkeyAlloc); err != nil {
		return 0, err
	}
	_, err = ih.Sys(kernel.SysPkeyMprotect, 0, mem.PageSize, protRWX, key)
	return key, err
}

// RewriteSite replaces the syscall instruction at addr with `callq
// *%rax` in one atomic two-byte store, with the page made writable for
// the store and its saved permission restored after. stored, if
// non-nil, runs between the store and the restore. It reports false,
// writing nothing, when addr is unmapped.
func RewriteSite(ih *loader.InitHandle, addr uint64, stored func()) (bool, error) {
	perm, _, ok := ih.P.AS.PermAt(addr)
	if !ok {
		return false, nil
	}
	pageAddr := mem.PageBase(addr)
	span := addr + uint64(cpu.SyscallInstLen) - pageAddr // page-rounded by mprotect
	if _, err := ih.Sys(kernel.SysMprotect, pageAddr, span, protRWX); err != nil {
		return false, err
	}
	if err := ih.T.Core.StoreAsSelf(addr, cpu.CallRaxBytes); err != nil {
		return false, err
	}
	if stored != nil {
		stored()
	}
	_, err := ih.Sys(kernel.SysMprotect, pageAddr, span, kernel.PermToProt(perm))
	return err == nil, err
}

// Preload registers lib in w once and returns a copy of env whose
// LD_PRELOAD injects it.
func (w *World) Preload(lib *image.Image, env []string) []string {
	if _, ok := w.Reg.Lookup(lib.Path); !ok {
		w.Reg.MustAdd(lib)
	}
	return kernel.SetEnv(append([]string(nil), env...), loader.LdPreloadVar, lib.Path)
}

// StateOf returns p's interposer state when it is an S, or an error
// naming the interposer when p is not interposed by it.
func StateOf[S any](p *kernel.Process, interposer string) (*S, error) {
	st, ok := p.Interposer.(*S)
	if !ok {
		return nil, fmt.Errorf("%s: process %d not interposed", interposer, p.PID)
	}
	return st, nil
}
