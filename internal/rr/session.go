package rr

import (
	"context"
	"fmt"

	"k23/internal/canon"
	"k23/internal/cpu"
	"k23/internal/interpose"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// Hooks customizes session construction.
type Hooks struct {
	// BeforeLaunch runs at the runner's attach point — after any offline
	// phase, immediately before production interposition starts — the
	// correct attach point for observers (audit, flight recorder) that
	// must cover exactly the production run.
	BeforeLaunch func(w *interpose.World)
}

// liveCkpt pairs a checkpoint's metadata with its in-memory kernel
// snapshot and the resumable runner state (hash accumulators, syscall
// count, injection) needed to continue the run from it. Steps need no
// saving: they are read off the restored cores.
type liveCkpt struct {
	meta     CkptMeta
	snap     *kernel.Snapshot
	trace    cpu.TraceHash
	events   machine.Hash
	syscalls uint64
	injected bool
}

// Session is the recorder attached to one machine run. A session
// records (or replays) a run to completion, holding live snapshots at
// every checkpoint; afterwards it can re-execute from any checkpoint
// (RunFromCheckpoint) or seek to an event ordinal (SeekSeq) by
// restoring the nearest snapshot and running forward.
type Session struct {
	Spec RunSpec
	W    *interpose.World
	P    *kernel.Process
	// Rec is this session's recording, complete after Run.
	Rec *Recording

	m        *machine.Run
	replayOf *Recording
	ckpts    []*liveCkpt
	events   []EventRec
	lastCkpt uint64 // VClock at the last checkpoint
	// retracing suppresses checkpoint-taking and divergence bookkeeping
	// while re-executing a stretch the session already recorded
	// (RunFromCheckpoint, SeekSeq).
	retracing bool
	// divergence is the first checkpoint index whose replayed metadata
	// mismatched the recording being replayed; -1 means none (so far).
	divergence int
	// finalDiverged marks a replay whose final state mismatched even
	// though every checkpoint matched (divergence after the last one).
	finalDiverged bool
	finished      bool
}

// Record builds a session that records spec from scratch: the frontier
// values (initial clock, payload, chaos stream) are derived from
// spec.Seed by the runner and captured into the recording.
func Record(spec RunSpec, hooks Hooks) (*Session, error) {
	return start(spec, hooks, nil, nil)
}

// Replay builds a session that re-executes a recording. It consumes
// only the recorded frontier — initial clock, payload bytes, chaos
// decision script — which override everything the runner derives from
// the seed, so a matching outcome proves the frontier captured every
// source of nondeterminism. The session records its own trace as it
// goes and flags the first checkpoint where it diverges from rec.
func Replay(rec *Recording, hooks Hooks) (*Session, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	kopts := []kernel.Option{kernel.WithVClock(rec.VClock0)}
	if rec.Spec.Chaos != nil {
		kopts = append(kopts, kernel.WithChaosScript(*rec.Spec.Chaos, rec.Chaos))
	}
	return start(rec.Spec, hooks, kopts, rec)
}

// start boots spec through the runner with the hooks' observers and the
// recorder attached at the attach point; the recorder takes checkpoint
// 0 right after launch.
func start(spec RunSpec, hooks Hooks, kopts []kernel.Option, replayOf *Recording) (*Session, error) {
	var s *Session
	_, err := machine.Start(context.Background(), spec, machine.Config{Kernel: kopts, Attach: func(r *machine.Run) {
		if replayOf != nil {
			r.Payload = []byte(replayOf.Payload)
		}
		if hooks.BeforeLaunch != nil {
			hooks.BeforeLaunch(r.W)
		}
		s = attach(r)
		s.replayOf = replayOf
	}})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// attach attaches a recorder to r, after the run's other observers: it
// turns on trace hashing, captures every kernel event, and takes
// checkpoints on r's drive boundaries.
func attach(r *machine.Run) *Session {
	s := &Session{
		Spec: r.Spec, W: r.W, m: r, divergence: -1,
		Rec: &Recording{Spec: r.Spec, VClock0: r.VClock0},
	}
	if r.Spec.Server {
		s.Rec.Payload = string(r.Payload)
		s.Rec.PayloadDigest = canon.Digest(r.Payload)
	}
	r.HashTrace()
	r.W.K.OnEvent(func(e *kernel.Event) {
		ev := EventRec{
			Seq: e.Seq, PID: e.PID, TID: e.TID, Kind: e.Kind.String(),
			Num: e.Num, Site: e.Site, Ret: e.Ret, Clock: e.Clock, Detail: e.Detail,
		}
		if e.Kind == kernel.EvEnter {
			ev.Args = append([]uint64(nil), e.Args[:]...)
		}
		s.events = append(s.events, ev)
	})
	r.Observe = s.boundary
	return s
}

// boundary takes the recorder's checkpoints: after launch, after the
// server's connection is injected, and whenever the virtual clock has
// advanced a full interval since the last one.
func (s *Session) boundary(at machine.Point) error {
	switch {
	case at == machine.Launched:
		s.P = s.m.P
		return s.takeCheckpoint()
	case s.retracing:
		return nil
	case at == machine.Injected || s.W.K.VClock-s.lastCkpt >= checkpointEvery(s.Spec):
		return s.takeCheckpoint()
	}
	return nil
}

// takeCheckpoint snapshots the world and the resumable runner state.
// In replay mode it also compares the new checkpoint's position and
// hashes against the recording under replay, flagging the first
// divergent index.
func (s *Session) takeCheckpoint() error {
	var prev *kernel.Snapshot
	if n := len(s.ckpts); n > 0 {
		prev = s.ckpts[n-1].snap
	}
	snap, err := s.W.K.Checkpoint(prev)
	if err != nil {
		return fmt.Errorf("rr: checkpoint %d: %v", len(s.ckpts), err)
	}
	copied, shared := snap.ASDelta()
	m := s.m
	c := &liveCkpt{
		meta: CkptMeta{
			Index: len(s.ckpts), Seq: s.W.K.EventSeq(), VClock: s.W.K.VClock,
			Steps: m.Steps(), Events: len(s.events),
			TraceHash: uint64(m.Trace), EventHash: uint64(m.Events),
			PagesCopied: copied, PagesShared: shared,
		},
		snap: snap, trace: m.Trace, events: m.Events,
		syscalls: m.Syscalls, injected: m.Injected,
	}
	s.ckpts = append(s.ckpts, c)
	if s.replayOf != nil && s.divergence < 0 {
		i := c.meta.Index
		if i >= len(s.replayOf.Checkpoints) || s.replayOf.Checkpoints[i] != c.meta {
			s.divergence = i
		}
	}
	s.lastCkpt = s.W.K.VClock
	return nil
}

// Run drives the session to completion with the runner's canonical
// drive loop, then finalizes Rec.
func (s *Session) Run() error {
	if err := s.m.Drive(context.Background(), 0); err != nil {
		return err
	}
	s.finish()
	return nil
}

// finish captures the run's observable outcome into Rec.
func (s *Session) finish() {
	k := s.W.K
	s.Rec.Chaos = append([]kernel.ChaosDecision(nil), k.ChaosDecisions()...)
	s.Rec.Events = s.events // restoreTo caps its capacity: re-execution never writes into it
	s.Rec.Checkpoints = s.ckptMetas()
	s.Rec.Final = s.currentFinal()
	if s.replayOf != nil && s.divergence < 0 {
		if s.Rec.Final != s.replayOf.Final {
			s.finalDiverged = true
		} else if !sameEvents(s.Rec.Events, s.replayOf.Events) {
			// The re-executed run matched its own checkpoints and final
			// hashes but the recording's *event lines* disagree with what
			// replay produced: the recording was edited or corrupted after
			// the fact (hashes in the file still describe the true stream).
			s.finalDiverged = true
		}
	}
	s.finished = true
}

// sameEvents compares two event streams field by field.
func sameEvents(a, b []EventRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eventEq(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func (s *Session) ckptMetas() []CkptMeta {
	out := make([]CkptMeta, len(s.ckpts))
	for i, c := range s.ckpts {
		out[i] = c.meta
	}
	return out
}

// currentFinal reads the observable outcome off the live world.
func (s *Session) currentFinal() Final {
	o := s.m.Outcome()
	return Final{
		TraceHash: o.TraceHash, EventHash: o.EventHash, VFSHash: o.VFSHash,
		Steps: o.Steps, Syscalls: o.Syscalls,
		Events: len(s.events), Seq: s.W.K.EventSeq(),
		ExitCode: o.Exit.Code, ExitSignal: o.Exit.Signal,
		ChaosInjected: o.ChaosInjected,
		StdoutDigest:  canon.Digest(s.P.Stdout), StderrDigest: canon.Digest(s.P.Stderr),
	}
}

// Diverged reports whether a replay mismatched the recording it was
// replaying: the first divergent checkpoint index, or the checkpoint
// count if only the final state differed.
func (s *Session) Diverged() (ckptIndex int, diverged bool) {
	if s.divergence >= 0 {
		return s.divergence, true
	}
	if s.finalDiverged {
		return len(s.ckpts), true
	}
	return -1, false
}

// NumCheckpoints returns how many live checkpoints the session holds.
func (s *Session) NumCheckpoints() int { return len(s.ckpts) }

// Launcher exposes the session's interposer launcher (for stats).
func (s *Session) Launcher() interpose.Launcher { return s.m.L }

// restoreTo rewinds the world and the runner state to checkpoint i. The
// event log restarts from the primary run's immutable stream (Rec), so
// any sequence of restores — forward or backward — sees the records the
// primary run captured; the capped capacity makes re-execution append to
// a private copy.
func (s *Session) restoreTo(i int) {
	c := s.ckpts[i]
	s.W.K.Restore(c.snap)
	s.m.Trace, s.m.Events = c.trace, c.events
	s.m.Syscalls, s.m.Injected = c.syscalls, c.injected
	n := c.meta.Events
	s.events = s.Rec.Events[:n:n]
}

// RunFromCheckpoint restores checkpoint i and re-executes the run to
// completion with the canonical drive loop, returning the observable
// outcome. A correct engine returns exactly Rec.Final for every i —
// the replay-equivalence battery's core assertion.
func (s *Session) RunFromCheckpoint(i int) (Final, error) {
	if !s.finished {
		return Final{}, fmt.Errorf("rr: session has not finished its primary run")
	}
	if i < 0 || i >= len(s.ckpts) {
		return Final{}, fmt.Errorf("rr: checkpoint %d out of range [0,%d)", i, len(s.ckpts))
	}
	s.restoreTo(i)
	s.retracing = true
	defer func() { s.retracing = false }()
	if err := s.m.Drive(context.Background(), 0); err != nil {
		return Final{}, err
	}
	return s.currentFinal(), nil
}

// Seek reports the outcome of a SeekSeq call.
type Seek struct {
	// Target is the requested event ordinal.
	Target uint64
	// From is the checkpoint the seek restored, or -1 when the target
	// precedes checkpoint 0 and the seek replayed from tick 0 instead.
	From int
	// ReExecuted counts instructions re-executed from the checkpoint to
	// the target — the replay-latency metric.
	ReExecuted uint64
	// Seq and VClock are the kernel's position after the stop: the event
	// with ordinal Target-? has been emitted (Seq >= Target unless the
	// run ended first).
	Seq    uint64
	VClock uint64
}

// SeekSeq restores the nearest checkpoint at or before the target event
// ordinal and re-executes forward until the event with that ordinal has
// been emitted, leaving the world positioned just past it. This is the
// `k23 -replay -until <seq>` engine: reaching an audit-ledger escape's
// seq costs only the tail re-execution from the nearest checkpoint, not
// the full run. (A checkpoint's Seq is the ordinal the next event will
// carry, so a checkpoint with Seq <= target lies strictly before the
// target event's emission.) A target before checkpoint 0 — a
// launch-time event, e.g. a startup-category escape — replays the
// launch alone in a fresh world and reports From = -1; the session's
// own world is left untouched in that case.
func (s *Session) SeekSeq(target uint64) (*Seek, error) {
	if !s.finished {
		return nil, fmt.Errorf("rr: session has not finished its primary run")
	}
	best := -1
	for i, c := range s.ckpts {
		if c.meta.Seq <= target {
			best = i
		}
	}
	if best < 0 {
		// The target event was emitted during Launch, before checkpoint 0
		// could exist. Launch is host-driven and atomic — the scheduler
		// never runs inside it — so the nearest stop boundary past the
		// target is the post-launch state. Replay it in a fresh world;
		// the cost is the launch alone, not the full run.
		sub, err := Replay(s.Rec, Hooks{})
		if err != nil {
			return nil, fmt.Errorf("rr: seek to launch-time seq %d: %v", target, err)
		}
		return &Seek{
			Target: target, From: -1,
			ReExecuted: sub.m.Steps(),
			Seq:        sub.W.K.EventSeq(), VClock: sub.W.K.VClock,
		}, nil
	}
	s.restoreTo(best)
	s.retracing = true
	defer func() { s.retracing = false }()
	k := s.W.K
	start := s.m.Steps()
	k.StopAtSeq = target
	defer func() { k.StopAtSeq = 0 }()
	if err := s.m.Drive(context.Background(), target+1); err != nil {
		return nil, err
	}
	return &Seek{
		Target: target, From: best,
		ReExecuted: s.m.Steps() - start,
		Seq:        k.EventSeq(), VClock: k.VClock,
	}, nil
}
