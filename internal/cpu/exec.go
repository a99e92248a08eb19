package cpu

import "k23/internal/mem"

// This file holds the op table, the one definition of every
// instruction's semantics. The interpreter (Step) and the superblock
// engine (execBlock) both execute through it, so the two cannot drift.

// opFunc executes the decoded instruction in at site, after the caller
// has traced and charged it. It returns the instruction's Stop (StopNone
// when it retired) and reports whether control left straight-line flow:
// a taken branch, a call, a jump or a return. A memory fault leaves RIP
// at the site; every other instruction moves it.
type opFunc func(c *Core, in *Inst, site uint64) (Stop, bool)

// ops is every instruction's one implementation, indexed by Op: Step
// calls it after fetching, and a superblock stores it with each of its
// instructions. An op without an entry stops with StopIll.
var ops = [256]opFunc{
	OpNop: func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.retire(in, site) },
	OpSyscall: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.enterKernel(StopSyscall, in, site)
	},
	OpSysenter: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.enterKernel(StopSysenter, in, site)
	},
	OpCpuid:  serialize,
	OpMfence: serialize,
	OpUd2:    ill,
	OpRdtsc: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.R[RAX] = c.Cycles
		c.Ctx.R[RDX] = 0
		return c.retire(in, site)
	},
	OpWrpkru: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.PKRU = mem.PKRU(uint32(c.Ctx.R[RAX]))
		return c.retire(in, site)
	},
	OpRdpkru: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.R[RAX] = uint64(uint32(c.PKRU))
		return c.retire(in, site)
	},
	OpRdfsbase: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.R[in.A] = c.TLS
		return c.retire(in, site)
	},
	OpWrfsbase: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.TLS = c.Ctx.R[in.A]
		return c.retire(in, site)
	},
	OpHostcall: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.RIP = site + uint64(in.Len)
		return Stop{Kind: StopHostcall, Site: site, HostcallID: int32(in.Imm)}, false
	},
	OpCallReg: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.call(c.Ctx.R[in.A], in, site)
	},
	OpJmpReg:   func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.jump(c.Ctx.R[in.A]) },
	OpMovImm:   movImm,
	OpMovImm32: movImm,
	OpMovRR: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.R[in.A] = c.Ctx.R[in.B]
		return c.retire(in, site)
	},
	OpAdd: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]+c.Ctx.R[in.B], in, site)
	},
	OpSub: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]-c.Ctx.R[in.B], in, site)
	},
	OpXor: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]^c.Ctx.R[in.B], in, site)
	},
	OpAnd: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]&c.Ctx.R[in.B], in, site)
	},
	OpOr: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]|c.Ctx.R[in.B], in, site)
	},
	OpMul: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]*c.Ctx.R[in.B], in, site)
	},
	OpAddImm: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(uint64(int64(c.Ctx.R[in.A])+in.Imm), in, site)
	},
	OpShl: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]<<uint(in.Imm), in, site)
	},
	OpShr: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.alu(c.Ctx.R[in.A]>>uint(in.Imm), in, site)
	},
	OpCmp: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.flags(c.Ctx.R[in.A]-c.Ctx.R[in.B], in, site)
	},
	OpCmpImm: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.flags(uint64(int64(c.Ctx.R[in.A])-in.Imm), in, site)
	},
	OpTest: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.flags(c.Ctx.R[in.A]&c.Ctx.R[in.B], in, site)
	},
	OpLoad: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		v, err := c.AS.LoadU64(c.Ctx.R[in.B]+uint64(in.Imm), c.PKRU)
		if err != nil {
			return faultStop(err, site), false
		}
		c.Ctx.R[in.A] = v
		return c.retire(in, site)
	},
	OpLoadB: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		b, err := c.AS.Load(c.Ctx.R[in.B]+uint64(in.Imm), 1, c.PKRU)
		if err != nil {
			return faultStop(err, site), false
		}
		c.Ctx.R[in.A] = uint64(b[0])
		return c.retire(in, site)
	},
	OpStore: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.stored(c.store(c.Ctx.R[in.A]+uint64(in.Imm), putLE64(c.Ctx.R[in.B])), in, site)
	},
	OpStoreB: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.stored(c.store(c.Ctx.R[in.A]+uint64(in.Imm), []byte{byte(c.Ctx.R[in.B])}), in, site)
	},
	OpStoreW: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		v := uint16(c.Ctx.R[in.B])
		return c.stored(c.store(c.Ctx.R[in.A]+uint64(in.Imm), []byte{byte(v), byte(v >> 8)}), in, site)
	},
	OpCall: func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.call(rel(in, site), in, site) },
	OpJmp:  func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.jump(rel(in, site)) },
	OpJz:   func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.branch(c.Ctx.ZF, in, site) },
	OpJnz:  func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.branch(!c.Ctx.ZF, in, site) },
	OpJl:   func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.branch(c.Ctx.SF, in, site) },
	OpJge:  func(c *Core, in *Inst, site uint64) (Stop, bool) { return c.branch(!c.Ctx.SF, in, site) },
	OpJle: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.branch(c.Ctx.ZF || c.Ctx.SF, in, site)
	},
	OpJg: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.branch(!c.Ctx.ZF && !c.Ctx.SF, in, site)
	},
	OpRet: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
		if err != nil {
			return faultStop(err, site), false
		}
		c.Ctx.R[RSP] += 8
		return c.jump(v)
	},
	OpPush: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return c.stored(c.push(c.Ctx.R[in.A]), in, site)
	},
	OpPop: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		v, err := c.AS.LoadU64(c.Ctx.R[RSP], c.PKRU)
		if err != nil {
			return faultStop(err, site), false
		}
		c.Ctx.R[RSP] += 8
		c.Ctx.R[in.A] = v
		return c.retire(in, site)
	},
	OpHlt: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		return Stop{Kind: StopHalt, Site: site}, false
	},
	OpInt3: func(c *Core, in *Inst, site uint64) (Stop, bool) {
		c.Ctx.RIP = site + uint64(in.Len)
		return Stop{Kind: StopTrap, Site: site}, false
	},
}

// ill is UD2: an undefined instruction stops at its site, as an op
// without an entry does under Step.
func ill(c *Core, in *Inst, site uint64) (Stop, bool) {
	return Stop{Kind: StopIll, Site: site}, false
}

// retire moves RIP past the instruction: straight-line flow.
func (c *Core) retire(in *Inst, site uint64) (Stop, bool) {
	c.Ctx.RIP = site + uint64(in.Len)
	return Stop{}, false
}

// jump moves RIP to target: control left straight-line flow.
func (c *Core) jump(target uint64) (Stop, bool) {
	c.Ctx.RIP = target
	return Stop{}, true
}

// rel returns the target of a relative transfer.
func rel(in *Inst, site uint64) uint64 { return site + uint64(in.Len) + uint64(in.Imm) }

// branch jumps to the relative target if taken and falls through if not.
func (c *Core) branch(taken bool, in *Inst, site uint64) (Stop, bool) {
	if taken {
		return c.jump(rel(in, site))
	}
	return c.retire(in, site)
}

// flags sets the zero and sign flags from v.
func (c *Core) flags(v uint64, in *Inst, site uint64) (Stop, bool) {
	c.Ctx.ZF, c.Ctx.SF = v == 0, int64(v) < 0
	return c.retire(in, site)
}

// alu writes v to the first operand and sets the flags from it.
func (c *Core) alu(v uint64, in *Inst, site uint64) (Stop, bool) {
	c.Ctx.R[in.A] = v
	return c.flags(v, in, site)
}

// movImm loads the immediate (MOV r, imm64 and MOV r, imm32).
func movImm(c *Core, in *Inst, site uint64) (Stop, bool) {
	c.Ctx.R[in.A] = uint64(in.Imm)
	return c.retire(in, site)
}

// serialize flushes the I-cache (CPUID, MFENCE).
func serialize(c *Core, in *Inst, site uint64) (Stop, bool) {
	c.FlushICache()
	return c.retire(in, site)
}

// enterKernel is SYSCALL/SYSENTER: RCX <- return RIP, R11 <- RFLAGS, as
// on hardware.
func (c *Core) enterKernel(kind StopKind, in *Inst, site uint64) (Stop, bool) {
	next := site + uint64(in.Len)
	c.Ctx.R[RCX] = next
	c.Ctx.R[R11] = c.Ctx.Flags()
	c.Ctx.RIP = next
	return Stop{Kind: kind, Site: site}, false
}

// stored retires a store, or stops at its site if err says it faulted.
func (c *Core) stored(err error, in *Inst, site uint64) (Stop, bool) {
	if err != nil {
		return faultStop(err, site), false
	}
	return c.retire(in, site)
}

// push stores v below RSP, leaving RSP as it was on a fault.
func (c *Core) push(v uint64) error {
	c.Ctx.R[RSP] -= 8
	if err := c.store(c.Ctx.R[RSP], putLE64(v)); err != nil {
		c.Ctx.R[RSP] += 8
		return err
	}
	return nil
}

// call pushes the return RIP and jumps to target.
func (c *Core) call(target uint64, in *Inst, site uint64) (Stop, bool) {
	if err := c.push(site + uint64(in.Len)); err != nil {
		return faultStop(err, site), false
	}
	return c.jump(target)
}

func faultStop(err error, site uint64) Stop {
	if f, ok := err.(*mem.Fault); ok {
		return Stop{Kind: StopFault, Fault: f, Site: site}
	}
	return Stop{Kind: StopFault, Fault: &mem.Fault{}, Site: site}
}

func putLE64(v uint64) []byte {
	return []byte{
		byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24),
		byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56),
	}
}
