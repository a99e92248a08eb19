package kernel

import "fmt"

// Chaos mode: a seeded, deterministic fault injector in the style of
// rr's chaos mode. At chosen kernel points it perturbs syscall outcomes
// the way a loaded Linux box does — signal wakeups that surface EINTR
// from blocked calls, short reads and writes, transient resource errnos —
// so the signal/syscall interaction bugs the paper's pitfalls live on
// actually get exercised. All randomness flows from one splitmix64
// stream per kernel, so a given (seed, profile, workload) triple replays
// bit-identically; every perturbation is recorded as an EvChaos event so
// traces explain themselves.
//
// Injection is gated on t.entryLen != 0: only syscalls that trapped from
// guest code are eligible. DirectSyscall-driven host logic (interposer
// internals, conformance probes) sees the unperturbed kernel — the same
// line Linux draws between user-visible syscall semantics and in-kernel
// helpers.

// ChaosProfile sets per-point injection rates, each a probability in
// 1024ths (0 = never, 1024 = always).
type ChaosProfile struct {
	// BlockEINTR is the chance that a syscall about to block instead
	// returns -EINTR, modelling a signal wakeup racing the sleep.
	BlockEINTR uint32
	// ShortRead is the chance a read delivers only a prefix of the
	// available data.
	ShortRead uint32
	// ShortWrite is the chance a write consumes only a prefix of the
	// supplied data.
	ShortWrite uint32
	// Transient is the chance an eligible syscall fails at entry with a
	// transient errno: EAGAIN (read/write), ENOMEM (mmap), EMFILE
	// (open/socket/accept).
	Transient uint32
}

// DefaultChaosProfile is the full perturbation mix the app and fleet
// sweeps run under.
func DefaultChaosProfile() ChaosProfile {
	return ChaosProfile{BlockEINTR: 48, ShortRead: 96, ShortWrite: 96, Transient: 48}
}

// SignalChaosProfile perturbs only blocking behaviour (EINTR wakeups).
// The pitfall-matrix sweep uses it: attack payloads deliberately issue
// raw, retry-less syscalls, so resource-errno injection would change
// what the PoC does rather than when — the matrix must keep its
// baseline Handled verdicts under chaos.
func SignalChaosProfile() ChaosProfile {
	return ChaosProfile{BlockEINTR: 64}
}

// Enabled reports whether any injection point is live.
func (p ChaosProfile) Enabled() bool {
	return p.BlockEINTR != 0 || p.ShortRead != 0 || p.ShortWrite != 0 || p.Transient != 0
}

// Chaos decision kinds, as they appear in recordings.
const (
	ChaosKindEINTR      = "eintr"
	ChaosKindShortRead  = "short-read"
	ChaosKindShortWrite = "short-write"
	ChaosKindTransient  = "transient"
)

// ChaosDecision records one injected perturbation as part of the
// replayable nondeterminism frontier: Q is the 1-based ordinal of the
// injector query that fired (queries that rolled and missed advance the
// ordinal without producing a decision), Kind names the perturbation,
// and Val carries its drawn value — the short-read/write prefix length,
// or the injected errno. A run replayed under WithChaosScript with the
// recorded decision list reproduces the exact perturbation schedule
// without ever touching the seed stream.
type ChaosDecision struct {
	Q    uint64 `json:"q"`
	Kind string `json:"kind"`
	Val  uint64 `json:"val"`
}

// chaosState is the per-kernel injector: a splitmix64 stream plus the
// profile, a count of perturbations performed, and the decision log.
// In scripted mode (WithChaosScript) the seed stream is never rolled:
// each query consumes the front of the script if its ordinal and kind
// match, which replays a recorded frontier exactly.
type chaosState struct {
	seed     uint64
	prof     ChaosProfile
	injected uint64

	// q counts injector queries (decide calls); hits logs the decisions
	// that fired, in query order.
	q    uint64
	hits []ChaosDecision

	// scripted selects replay mode: decisions come from script, not the
	// seed stream.
	scripted  bool
	script    []ChaosDecision
	scriptIdx int
}

// WithChaos arms deterministic fault injection with the given seed and
// profile. Like every kernel option it is instance-local: fleet machines
// each get their own derived seed and never share injector state.
func WithChaos(seed uint64, prof ChaosProfile) Option {
	return func(k *Kernel) {
		if !prof.Enabled() {
			return
		}
		k.chaos = &chaosState{seed: seed, prof: prof}
	}
}

// WithChaosScript arms the injector in replay mode: perturbations are
// driven by a recorded decision list instead of a seed stream. prof
// must be the profile the recording ran under — the profile gates which
// code points query the injector at all (a rate of 0 short-circuits
// decide), so replaying under a different profile would misalign the
// query ordinals. An empty script with an enabled profile is valid: the
// replayed run simply injects nothing, while still counting queries.
func WithChaosScript(prof ChaosProfile, script []ChaosDecision) Option {
	return func(k *Kernel) {
		if !prof.Enabled() {
			return
		}
		k.chaos = &chaosState{
			prof:     prof,
			scripted: true,
			script:   append([]ChaosDecision(nil), script...),
		}
	}
}

// ChaosDecisions returns the decision log so far — the dynamic half of
// the chaos frontier (nil when chaos is off). The returned slice is the
// live log; callers must not mutate it.
func (k *Kernel) ChaosDecisions() []ChaosDecision {
	if k.chaos == nil {
		return nil
	}
	return k.chaos.hits
}

// ChaosInjected returns the number of perturbations injected so far
// (0 when chaos is off).
func (k *Kernel) ChaosInjected() uint64 {
	if k.chaos == nil {
		return 0
	}
	return k.chaos.injected
}

// next advances the splitmix64 stream (same generator the fleet uses for
// seed derivation).
func (c *chaosState) next() uint64 {
	c.seed += 0x9e3779b97f4a7c15
	z := c.seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decide is the single injector query point. rate gates eligibility: a
// profile rate of 0 disables the code point entirely and does not count
// as a query, so the query ordinal q advances identically in rolled and
// scripted runs of the same profile. In rolled mode it rolls the seed
// stream and, on a hit, draws the perturbation value (draw keeps the
// roll/draw order of the original implementation, so pre-existing chaos
// streams replay bit-identically). In scripted mode the seed stream is
// never touched: a query fires iff the front of the script names its
// ordinal and kind.
func (c *chaosState) decide(rate uint32, kind string, draw func() uint64) (bool, uint64) {
	if rate == 0 {
		return false, 0
	}
	c.q++
	if c.scripted {
		if c.scriptIdx < len(c.script) {
			d := c.script[c.scriptIdx]
			if d.Q == c.q && d.Kind == kind {
				c.scriptIdx++
				c.hits = append(c.hits, d)
				return true, d.Val
			}
		}
		return false, 0
	}
	if uint32(c.next()&1023) >= rate {
		return false, 0
	}
	var val uint64
	if draw != nil {
		val = draw()
	}
	c.hits = append(c.hits, ChaosDecision{Q: c.q, Kind: kind, Val: val})
	return true, val
}

// transientErrno rolls for an entry-time transient failure of nr, with
// the errno the syscall table gives it (calls without one never fail).
func (c *chaosState) transientErrno(nr uint64) int {
	sc := lookupSyscall(nr)
	if sc == nil || sc.Transient == 0 {
		return 0
	}
	e := sc.Transient
	hit, _ := c.decide(c.prof.Transient, ChaosKindTransient, func() uint64 { return uint64(e) })
	if !hit {
		return 0
	}
	return e
}

// IsTransient reports whether e is an errno robust host-side logic
// should retry: the set the chaos injector can surface from otherwise
// well-formed calls. Interposer initializers use it so their guest-gate
// syscalls survive injection the same way the libc wrappers do.
func IsTransient(e int) bool {
	switch e {
	case EINTR, EAGAIN, ENOMEM, EMFILE:
		return true
	}
	return false
}

// emitChaos counts one perturbation and publishes it to the trace.
// detail is a closure so the disabled-observer path formats nothing.
func (k *Kernel) emitChaos(t *Thread, nr uint64, detail func() string) {
	k.chaos.injected++
	if k.Tracing() {
		k.emit(Event{PID: t.Proc.PID, TID: t.TID, Kind: EvChaos, Num: nr,
			Site: t.entrySite, Detail: detail()})
	}
}

// chaosBlockEINTR rolls for an EINTR wakeup at a point where t is about
// to block. On a hit the caller returns -EINTR instead of blocking —
// the compressed form of "a signal arrived, its handler ran, the call
// was not restarted".
func (k *Kernel) chaosBlockEINTR(t *Thread, nr uint64) bool {
	if k.chaos == nil || t.entryLen == 0 {
		return false
	}
	hit, _ := k.chaos.decide(k.chaos.prof.BlockEINTR, ChaosKindEINTR, nil)
	if !hit {
		return false
	}
	k.emitChaos(t, nr, func() string { return "EINTR wakeup at would-block" })
	return true
}

// chaosShortRead rolls for a short read, returning a non-empty prefix of
// chunk.
func (k *Kernel) chaosShortRead(t *Thread, chunk []byte) []byte {
	if k.chaos == nil || t.entryLen == 0 || len(chunk) < 2 {
		return chunk
	}
	c := k.chaos
	hit, val := c.decide(c.prof.ShortRead, ChaosKindShortRead,
		func() uint64 { return 1 + c.next()%uint64(len(chunk)-1) })
	if !hit {
		return chunk
	}
	n := clampPrefix(val, len(chunk))
	k.emitChaos(t, SysRead, func() string { return fmt.Sprintf("short read %d of %d", n, len(chunk)) })
	return chunk[:n]
}

// chaosShortWrite rolls for a short write, returning the non-empty
// prefix the kernel will consume.
func (k *Kernel) chaosShortWrite(t *Thread, data []byte) []byte {
	if k.chaos == nil || t.entryLen == 0 || len(data) < 2 {
		return data
	}
	c := k.chaos
	hit, val := c.decide(c.prof.ShortWrite, ChaosKindShortWrite,
		func() uint64 { return 1 + c.next()%uint64(len(data)-1) })
	if !hit {
		return data
	}
	n := clampPrefix(val, len(data))
	k.emitChaos(t, SysWrite, func() string { return fmt.Sprintf("short write %d of %d", n, len(data)) })
	return data[:n]
}

// clampPrefix bounds a scripted prefix length to a valid non-empty
// prefix. On a faithful replay the recorded value is already in range;
// the clamp only keeps a corrupted or mismatched script from panicking
// the slice below (the divergence then shows up in the trace hash,
// where the bisector can localize it).
func clampPrefix(val uint64, n int) int {
	if val < 1 {
		return 1
	}
	if val >= uint64(n) {
		return n - 1
	}
	return int(val)
}
