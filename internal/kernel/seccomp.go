package kernel

import "k23/internal/cpu"

// Seccomp support: the third Linux interposition interface the paper
// discusses (§1, §5.1 — "alternatives include ptrace or seccomp"). The
// model implements SECCOMP_SET_MODE_FILTER with a simplified filter
// encoding (an array of rules rather than BPF bytecode; the semantics —
// stacked filters, most-restrictive action wins, argument matching —
// follow seccomp(2)).
//
// Guest filter encoding at the address passed to seccomp(2):
//
//	u64 ruleCount
//	u64 defaultAction
//	ruleCount x { u64 nr; u64 hasArgCond; u64 argIdx; u64 argVal; u64 action }
//
// A rule matches when nr equals the syscall number (or nr == ^0 for any)
// and, if hasArgCond != 0, argument argIdx equals argVal. The argument
// condition is what lets seccomp-TRAP interposers re-execute syscalls
// from their own handler without re-trapping: they allow calls carrying
// a secret cookie in an unused argument register.
const (
	SysSeccomp = 317

	SeccompSetModeFilter = 1

	// Filter return actions (Linux values; lower value = more
	// restrictive, evaluated across all installed filters).
	SeccompRetKillProcess = 0x80000000
	SeccompRetTrap        = 0x00030000
	SeccompRetErrno       = 0x00050000 // | errno in low 16 bits
	SeccompRetAllow       = 0x7fff0000

	seccompActionMask = 0xffff0000
	seccompDataMask   = 0x0000ffff
)

// SeccompAnyNr matches any syscall number in a rule.
const SeccompAnyNr = ^uint64(0)

// seccompRule is one decoded filter rule.
type seccompRule struct {
	nr         uint64
	hasArgCond bool
	argIdx     int
	argVal     uint64
	action     uint64
}

// seccompFilter is one installed filter program.
type seccompFilter struct {
	rules         []seccompRule
	defaultAction uint64
}

// evaluate returns the filter's action for (nr, args).
func (f *seccompFilter) evaluate(nr uint64, args [6]uint64) uint64 {
	for _, r := range f.rules {
		if r.nr != SeccompAnyNr && r.nr != nr {
			continue
		}
		if r.hasArgCond && (r.argIdx < 0 || r.argIdx >= 6 || args[r.argIdx] != r.argVal) {
			continue
		}
		return r.action
	}
	return f.defaultAction
}

// sysSeccomp installs a filter (SECCOMP_SET_MODE_FILTER). Filters stack:
// every installed filter is evaluated and the most restrictive (lowest)
// action wins, as in seccomp(2). Filters cannot be removed — which is
// why, unlike SUD's prctl (pitfall P1b), seccomp-based interposition
// cannot be switched off by the application.
func (k *Kernel) sysSeccomp(t *Thread, a [6]uint64) (uint64, bool) {
	op, addr := a[0], a[2]
	if op != SeccompSetModeFilter || addr == 0 {
		return errno(EINVAL), false
	}
	p := t.Proc
	count, err := p.AS.KLoadU64(addr)
	if err != nil || count > 4096 {
		return errno(EFAULT), false
	}
	def, err := p.AS.KLoadU64(addr + 8)
	if err != nil {
		return errno(EFAULT), false
	}
	f := &seccompFilter{defaultAction: def}
	for i := uint64(0); i < count; i++ {
		base := addr + 16 + i*40
		var words [5]uint64
		for w := range words {
			v, err := p.AS.KLoadU64(base + uint64(8*w))
			if err != nil {
				return errno(EFAULT), false
			}
			words[w] = v
		}
		f.rules = append(f.rules, seccompRule{
			nr:         words[0],
			hasArgCond: words[1] != 0,
			argIdx:     int(words[2]),
			argVal:     words[3],
			action:     words[4],
		})
	}
	p.seccomp = append(p.seccomp, f)
	return 0, false
}

// seccompCheck evaluates all installed filters for the pending syscall.
// It returns proceed=false when the syscall must not execute, having
// already applied the action (errno injection, SIGSYS, or kill).
func (k *Kernel) seccompCheck(t *Thread, nr uint64, site uint64) (proceed bool) {
	p := t.Proc
	if len(p.seccomp) == 0 {
		return true
	}
	var args [6]uint64
	for i := range args {
		args[i] = t.Core.Ctx.Arg(i)
	}
	// Precedence across stacked filters (seccomp(2)): KILL > TRAP >
	// ERRNO > ALLOW. KILL's numeric value (0x80000000) is the largest,
	// so a plain numeric minimum would invert it.
	rank := func(a uint64) int {
		switch a & seccompActionMask {
		case SeccompRetAllow & seccompActionMask:
			return 3
		case SeccompRetErrno & seccompActionMask:
			return 2
		case SeccompRetTrap & seccompActionMask:
			return 1
		default:
			return 0 // kill
		}
	}
	action := uint64(SeccompRetAllow)
	for _, f := range p.seccomp {
		if a := f.evaluate(nr, args); rank(a) < rank(action) {
			action = a
		}
	}
	switch action & seccompActionMask {
	case SeccompRetAllow & seccompActionMask:
		return true
	case SeccompRetErrno & seccompActionMask:
		t.Core.Ctx.R[cpu.RAX] = errno(int(action & seccompDataMask))
		k.EmitPhase(t, PhReturn, nr, site, "seccomp-errno")
		return false
	case SeccompRetTrap & seccompActionMask:
		if k.Tracing() {
			k.emit(Event{PID: p.PID, TID: t.TID, Kind: EvSeccompSigsys, Num: nr, Site: site})
		}
		// Diverted to the SIGSYS handler, never serviced: close the trap
		// span before the signal span opens.
		k.EmitPhase(t, PhReturn, nr, site, "seccomp-sigsys")
		k.deliverSignal(t, SIGSYS, sigInfo{
			signo:    SIGSYS,
			syscall:  nr,
			callAddr: site + uint64(cpu.SyscallInstLen),
			code:     SiCodeSeccomp,
		})
		return false
	default: // kill
		k.killProcess(p, SIGSYS, "seccomp: killed by filter")
		return false
	}
}
