package cpu

import (
	"fmt"

	"k23/internal/mem"
)

// Context is the architectural register state of a thread.
type Context struct {
	R   [NumRegs]uint64
	RIP uint64
	// ZF and SF are the zero and sign flags.
	ZF, SF bool
}

// Arg returns the i-th system call argument register value (0-based),
// following the x86-64 Linux ABI.
func (c *Context) Arg(i int) uint64 { return c.R[SyscallArgRegs[i]] }

// SetArg sets the i-th system call argument register.
func (c *Context) SetArg(i int, v uint64) { c.R[SyscallArgRegs[i]] = v }

// Flags packs the flags into a word (bit 6 = ZF, bit 7 = SF, as in RFLAGS).
func (c *Context) Flags() uint64 {
	var f uint64
	if c.ZF {
		f |= 1 << 6
	}
	if c.SF {
		f |= 1 << 7
	}
	return f
}

// SetFlags unpacks a flags word produced by Flags.
func (c *Context) SetFlags(f uint64) {
	c.ZF = f&(1<<6) != 0
	c.SF = f&(1<<7) != 0
}

// StopKind says why Step returned control to the kernel.
type StopKind uint8

// Stop kinds.
const (
	// StopNone: the instruction retired; keep stepping.
	StopNone StopKind = iota
	// StopSyscall: a SYSCALL instruction executed. RIP has advanced past
	// it and RCX/R11 hold the return RIP and flags, as on real hardware.
	StopSyscall
	// StopSysenter: as StopSyscall, for the legacy SYSENTER encoding.
	StopSysenter
	// StopFault: a memory access faulted; RIP still points at the
	// faulting instruction.
	StopFault
	// StopIll: undefined instruction (UD2 or undecodable bytes).
	StopIll
	// StopTrap: INT3 breakpoint.
	StopTrap
	// StopHalt: HLT executed.
	StopHalt
	// StopHostcall: a HOSTCALL instruction; the kernel invokes the
	// registered host function. RIP has advanced past it.
	StopHostcall
)

func (k StopKind) String() string {
	switch k {
	case StopNone:
		return "none"
	case StopSyscall:
		return "syscall"
	case StopSysenter:
		return "sysenter"
	case StopFault:
		return "fault"
	case StopIll:
		return "ill"
	case StopTrap:
		return "trap"
	case StopHalt:
		return "halt"
	case StopHostcall:
		return "hostcall"
	default:
		return fmt.Sprintf("stop(%d)", uint8(k))
	}
}

// Stop describes why execution stopped.
type Stop struct {
	Kind StopKind
	// Fault is set for StopFault.
	Fault *mem.Fault
	// Site is the address of the instruction that caused the stop
	// (for syscalls: the SYSCALL/SYSENTER instruction itself).
	Site uint64
	// HostcallID is set for StopHostcall.
	HostcallID int32
}

// CMCEvent records a cross-modifying-code hazard: the core executed
// instruction bytes from its instruction cache that no longer match
// memory, without an intervening serialization point. On real x86-64 this
// is architecturally undefined behaviour; the simulator makes it explicit
// and countable, which is how the pitfall P5 tests observe lazypoline's
// missing serialization.
type CMCEvent struct {
	Addr   uint64
	Cached []byte
	Fresh  []byte
}

func (e CMCEvent) String() string {
	return fmt.Sprintf("cross-modifying code at %#x: executing stale % x, memory holds % x",
		e.Addr, e.Cached, e.Fresh)
}

// DecodeCacheStats counts decoded-instruction cache activity.
type DecodeCacheStats struct {
	// Hits counts fetches served from the decode cache (no re-decode).
	Hits uint64
	// Misses counts fetches that went through the full
	// fetch/EncodedLen/Decode path and installed a cache entry.
	Misses uint64
	// Invalidations counts entries dropped eagerly by the core's own
	// stores (self-modifying code).
	Invalidations uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 when nothing was fetched.
func (s DecodeCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add accumulates other into s.
func (s *DecodeCacheStats) Add(other DecodeCacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Invalidations += other.Invalidations
}

// Core executes instructions for one thread. Each thread runs on its own
// core (the paper's P5 scenarios are cross-core), so each Core has a
// private instruction cache.
//
// Coherence model: a line, once filled, is used for fetches without
// re-validation until one of the serialization points below. This mirrors
// the x86-64 requirement that cross-modifying code perform a serializing
// operation on the executing core before the new bytes may be relied on.
//
// Serialization points (which flush the I-cache):
//   - CPUID and MFENCE instructions,
//   - any kernel entry on this core (syscall, fault, trap, signal
//     delivery), applied by the kernel via FlushICache,
//   - the core's own stores that hit a cached line (self-modifying code
//     on the same core is handled transparently on x86-64).
type Core struct {
	AS   *mem.AddressSpace
	Ctx  Context
	PKRU mem.PKRU

	// TLS is the thread-local-storage base (the fs segment base on
	// x86-64), read/written by RDFSBASE/WRFSBASE.
	TLS uint64

	// Cycles accumulates the cycle cost of retired instructions.
	Cycles uint64
	// Insts counts retired instructions.
	Insts uint64

	// CMCViolations counts stale-fetch hazards; LastCMC holds the most
	// recent one.
	CMCViolations uint64
	LastCMC       *CMCEvent

	// Coherent, if set, disables staleness (every fetch revalidates
	// against memory). Used to contrast correct behaviour in tests. It
	// also bypasses the decode cache entirely.
	Coherent bool

	// DecodeCacheOff disables the decoded-instruction cache, forcing
	// every fetch through the full fetch/EncodedLen/Decode path. The
	// differential test harness uses it to prove cached and uncached
	// execution are bit-identical. It also disables the superblock JIT,
	// which is layered on top of the cached world view.
	DecodeCacheOff bool

	// JITOff disables the trace-JIT superblock engine (see jit.go),
	// forcing Run through per-instruction Step dispatch. The three-way
	// differential battery uses it to prove jitted, cached and uncached
	// execution are bit-identical.
	JITOff bool

	// DecodeStats counts decode cache hits, misses and invalidations.
	DecodeStats DecodeCacheStats

	// JITStats counts superblock compilation and dispatch activity.
	JITStats JITStats

	// Trace, if non-nil, folds in (TID, fetch address, opcode) of every
	// successfully decoded instruction, before execution. The kernel
	// sets both fields on the cores it creates.
	Trace *TraceHash
	TID   int

	// pages is the code cache (see codecache.go): line slots by page
	// number. lastPN/lastPage remember the page the last fetch, decode
	// or dispatch found; storePN/storePage the page the last store
	// checked, nil when the core holds no code there. Only lines filled
	// in the current flushEpoch are resident.
	pages      map[uint64]*codePage
	lastPN     uint64
	lastPage   *codePage
	storePN    uint64
	storePage  *codePage
	flushEpoch uint64

	// hotN counts the live anchor counters across all lines.
	hotN int

	// jitSeq numbers superblock validation epochs: it advances at every
	// Run quantum entry and every I-cache flush, the only two points
	// where a fully validated superblock's lines could cease to be
	// resident-and-current without the block being evicted.
	jitSeq uint64
}

// NewCore returns a core bound to the given address space.
func NewCore(as *mem.AddressSpace) *Core {
	return &Core{
		AS:         as,
		pages:      make(map[uint64]*codePage),
		storePN:    noPage,
		flushEpoch: 1,
	}
}

// FlushICache discards all cached instruction lines (a serialization
// point) by starting a new flush epoch: every line filled before it
// stops being resident.
//
// The decode cache is deliberately NOT flushed here: its entries are
// generation-checked on every lookup, so after a flush an entry is only
// replayed if re-reading memory would return the exact bytes it was built
// from. Flushing it would defeat the cache entirely — the kernel
// serializes on every syscall.
func (c *Core) FlushICache() {
	c.flushEpoch++
	// Superblocks, like the decode cache, survive the flush but must
	// revalidate (and lazily refill) their lines afterwards.
	c.jitSeq++
}

// fetchByte returns the instruction byte at addr through the I-cache,
// filling the containing line on a miss (always, when Coherent).
func (c *Core) fetchByte(addr uint64) (byte, error) {
	lineNum := addr / cacheLineSize
	ln := c.slot(lineNum)
	if ln.epoch != c.flushEpoch || c.Coherent {
		if err := c.fill(ln, lineNum); err != nil {
			return 0, err
		}
	}
	return ln.data[addr%cacheLineSize], nil
}

// fetchInst fetches and decodes the instruction at RIP, honouring the
// I-cache staleness model. A decode-cache hit skips the whole
// fetch/EncodedLen/Decode path; a miss derives the encoding length from
// the first byte (or first two, for prefixed encodings) so each
// instruction is decoded exactly once, then installs a cache entry.
func (c *Core) fetchInst() (Inst, error) {
	rip := c.Ctx.RIP
	useCache := !c.DecodeCacheOff && !c.Coherent
	if useCache {
		if inst, ok := c.lookupDecoded(rip); ok {
			return inst, nil
		}
	}

	var buf [MaxInstLen]byte
	b0, err := c.fetchByte(rip)
	if err != nil {
		return Inst{}, err
	}
	buf[0] = b0
	have := 1

	n, needSecond := EncodedLen(b0, 0, 1)
	if needSecond {
		b1, err := c.fetchByte(rip + 1)
		if err != nil {
			return Inst{}, err
		}
		buf[1] = b1
		have = 2
		n, _ = EncodedLen(b0, b1, 2)
	}
	if n <= 0 {
		return Inst{}, &DecodeError{Byte: b0}
	}
	for i := have; i < n; i++ {
		bi, err := c.fetchByte(rip + uint64(i))
		if err != nil {
			return Inst{}, err
		}
		buf[i] = bi
	}
	inst, derr := Decode(buf[:n])
	if derr != nil {
		return Inst{}, derr
	}
	// One staleness check per distinct line the encoding covers (at most
	// two, since MaxInstLen < cacheLineSize). Every covered line is
	// resident at this point — fetchByte fills on miss — and a line
	// filled during this very fetch trivially passes the check, which is
	// exactly the old behaviour: only lines that were already cached can
	// be stale.
	staleAny := false
	first := rip / cacheLineSize
	last := (rip + uint64(n) - 1) / cacheLineSize
	for l := first; l <= last; l++ {
		if ln := c.resident(l); ln != nil && ln.gen != c.AS.Gen(l*cacheLineSize) {
			staleAny = true
		}
	}
	c.noteStaleness(inst, buf[:inst.Len], staleAny)
	if useCache {
		c.DecodeStats.Misses++
		c.installDecoded(rip, inst, buf[:inst.Len])
	}
	return inst, nil
}

// noteStaleness records a CMC violation if the executed bytes differ from
// current memory.
func (c *Core) noteStaleness(inst Inst, bytes []byte, stale bool) {
	if !stale || c.Coherent {
		return
	}
	fresh, err := c.AS.KLoad(c.Ctx.RIP, inst.Len)
	if err != nil {
		return
	}
	diff := false
	for i := range fresh {
		if fresh[i] != bytes[i] {
			diff = true
			break
		}
	}
	if diff {
		c.CMCViolations++
		c.LastCMC = &CMCEvent{
			Addr:   c.Ctx.RIP,
			Cached: append([]byte(nil), bytes...),
			Fresh:  fresh,
		}
	}
}

// store performs a user-plane store and keeps this core's own I-cache
// coherent with its own writes (per x86-64 self-modifying-code rules).
func (c *Core) store(addr uint64, b []byte) error {
	if err := c.AS.Store(addr, b, c.PKRU); err != nil {
		return err
	}
	if len(b) > 0 {
		c.invalidate(addr, addr+uint64(len(b)-1))
	}
	return nil
}

// StoreAsSelf performs a user-plane store attributed to this core,
// keeping its own instruction cache coherent — the x86-64 same-core
// self-modifying-code rule. Interposer host logic that rewrites code on
// behalf of a running thread must use this instead of a bare
// AddressSpace store, or the thread may later execute its own stale
// pre-rewrite bytes.
func (c *Core) StoreAsSelf(addr uint64, b []byte) error { return c.store(addr, b) }

// Step executes one instruction and reports why it stopped (StopNone for
// ordinary retirement). On faults, RIP is left at the faulting
// instruction; on syscalls/hostcalls, RIP has advanced.
func (c *Core) Step() Stop {
	site := c.Ctx.RIP
	inst, err := c.fetchInst()
	if err != nil {
		if f, ok := err.(*mem.Fault); ok {
			return Stop{Kind: StopFault, Fault: f, Site: site}
		}
		return Stop{Kind: StopIll, Site: site}
	}
	if c.Trace != nil {
		c.Trace.Fold(c.TID, site, inst.Op)
	}

	c.Cycles += InstCost(inst.Op)
	c.Insts++
	next := site + uint64(inst.Len)
	r := &c.Ctx.R

	setZS := func(v uint64) {
		c.Ctx.ZF = v == 0
		c.Ctx.SF = int64(v) < 0
	}

	switch inst.Op {
	case OpNop:
	case OpSyscall, OpSysenter:
		// Hardware behaviour: RCX <- return RIP, R11 <- RFLAGS.
		r[RCX] = next
		r[R11] = c.Ctx.Flags()
		c.Ctx.RIP = next
		kind := StopSyscall
		if inst.Op == OpSysenter {
			kind = StopSysenter
		}
		return Stop{Kind: kind, Site: site}
	case OpCpuid, OpMfence:
		c.FlushICache()
	case OpUd2:
		return Stop{Kind: StopIll, Site: site}
	case OpRdtsc:
		r[RAX] = c.Cycles
		r[RDX] = 0
	case OpWrpkru:
		c.PKRU = mem.PKRU(uint32(r[RAX]))
	case OpRdpkru:
		r[RAX] = uint64(uint32(c.PKRU))
	case OpRdfsbase:
		r[inst.A] = c.TLS
	case OpWrfsbase:
		c.TLS = r[inst.A]
	case OpHostcall:
		c.Ctx.RIP = next
		return Stop{Kind: StopHostcall, Site: site, HostcallID: int32(inst.Imm)}
	case OpCallReg:
		target := r[inst.A]
		r[RSP] -= 8
		if err := c.store(r[RSP], putLE64(next)); err != nil {
			r[RSP] += 8
			return faultStop(err, site)
		}
		c.Ctx.RIP = target
		return Stop{Kind: StopNone}
	case OpJmpReg:
		c.Ctx.RIP = r[inst.A]
		return Stop{Kind: StopNone}
	case OpMovImm, OpMovImm32:
		r[inst.A] = uint64(inst.Imm)
	case OpMovRR:
		r[inst.A] = r[inst.B]
	case OpAdd:
		r[inst.A] += r[inst.B]
		setZS(r[inst.A])
	case OpSub:
		r[inst.A] -= r[inst.B]
		setZS(r[inst.A])
	case OpXor:
		r[inst.A] ^= r[inst.B]
		setZS(r[inst.A])
	case OpAnd:
		r[inst.A] &= r[inst.B]
		setZS(r[inst.A])
	case OpOr:
		r[inst.A] |= r[inst.B]
		setZS(r[inst.A])
	case OpMul:
		r[inst.A] *= r[inst.B]
		setZS(r[inst.A])
	case OpAddImm:
		r[inst.A] = uint64(int64(r[inst.A]) + inst.Imm)
		setZS(r[inst.A])
	case OpShl:
		r[inst.A] <<= uint(inst.Imm)
		setZS(r[inst.A])
	case OpShr:
		r[inst.A] >>= uint(inst.Imm)
		setZS(r[inst.A])
	case OpCmp:
		setZS(r[inst.A] - r[inst.B])
	case OpCmpImm:
		setZS(uint64(int64(r[inst.A]) - inst.Imm))
	case OpTest:
		setZS(r[inst.A] & r[inst.B])
	case OpLoad:
		v, err := c.AS.LoadU64(r[inst.B]+uint64(inst.Imm), c.PKRU)
		if err != nil {
			return faultStop(err, site)
		}
		r[inst.A] = v
	case OpLoadB:
		b, err := c.AS.Load(r[inst.B]+uint64(inst.Imm), 1, c.PKRU)
		if err != nil {
			return faultStop(err, site)
		}
		r[inst.A] = uint64(b[0])
	case OpStore:
		if err := c.store(r[inst.A]+uint64(inst.Imm), putLE64(r[inst.B])); err != nil {
			return faultStop(err, site)
		}
	case OpStoreB:
		if err := c.store(r[inst.A]+uint64(inst.Imm), []byte{byte(r[inst.B])}); err != nil {
			return faultStop(err, site)
		}
	case OpStoreW:
		v := uint16(r[inst.B])
		if err := c.store(r[inst.A]+uint64(inst.Imm), []byte{byte(v), byte(v >> 8)}); err != nil {
			return faultStop(err, site)
		}
	case OpCall:
		r[RSP] -= 8
		if err := c.store(r[RSP], putLE64(next)); err != nil {
			r[RSP] += 8
			return faultStop(err, site)
		}
		c.Ctx.RIP = uint64(int64(next) + inst.Imm)
		return Stop{Kind: StopNone}
	case OpJmp:
		c.Ctx.RIP = uint64(int64(next) + inst.Imm)
		return Stop{Kind: StopNone}
	case OpJz, OpJnz, OpJl, OpJge, OpJle, OpJg:
		taken := false
		switch inst.Op {
		case OpJz:
			taken = c.Ctx.ZF
		case OpJnz:
			taken = !c.Ctx.ZF
		case OpJl:
			taken = c.Ctx.SF
		case OpJge:
			taken = !c.Ctx.SF
		case OpJle:
			taken = c.Ctx.ZF || c.Ctx.SF
		case OpJg:
			taken = !c.Ctx.ZF && !c.Ctx.SF
		}
		if taken {
			c.Ctx.RIP = uint64(int64(next) + inst.Imm)
		} else {
			c.Ctx.RIP = next
		}
		return Stop{Kind: StopNone}
	case OpRet:
		v, err := c.AS.LoadU64(r[RSP], c.PKRU)
		if err != nil {
			return faultStop(err, site)
		}
		r[RSP] += 8
		c.Ctx.RIP = v
		return Stop{Kind: StopNone}
	case OpPush:
		r[RSP] -= 8
		if err := c.store(r[RSP], putLE64(r[inst.A])); err != nil {
			r[RSP] += 8
			return faultStop(err, site)
		}
	case OpPop:
		v, err := c.AS.LoadU64(r[RSP], c.PKRU)
		if err != nil {
			return faultStop(err, site)
		}
		r[RSP] += 8
		r[inst.A] = v
	case OpHlt:
		return Stop{Kind: StopHalt, Site: site}
	case OpInt3:
		c.Ctx.RIP = next
		return Stop{Kind: StopTrap, Site: site}
	default:
		return Stop{Kind: StopIll, Site: site}
	}
	c.Ctx.RIP = next
	return Stop{Kind: StopNone}
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
