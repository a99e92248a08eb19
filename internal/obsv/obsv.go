// Package obsv is K23's observability subsystem: a flight-recorder
// trace ring, per-syscall/per-mechanism metrics, and a deterministic
// sampling guest profiler, all fed from the kernel's event stream.
//
// Design rules (ISSUE 3):
//
//   - Nil-cost when disabled. An Observer with everything off installs
//     no hooks at all; the kernel's fast paths stay behind a single
//     `if k.Tracing()` branch and never construct events.
//   - No shared state. One Observer per World/kernel; fleets merge
//     per-machine Snapshots at report time. Nothing here takes a lock
//     on the simulation path, which is what keeps TestFleetDeterminism
//     bit-identical with tracing on or off, workers=1 or 8.
//   - Deterministic output. Everything is keyed to the virtual clock
//     and sorted at snapshot time; no wall-clock or map-order leaks.
package obsv

import (
	"k23/internal/audit"
	"k23/internal/cpu"
	"k23/internal/kernel"
	"k23/internal/probe"
	"k23/internal/sfip"
	"k23/internal/span"
)

// Options selects which collectors an Observer runs.
type Options struct {
	// Trace enables the flight recorder.
	Trace bool
	// RingSize is the flight-recorder capacity (events). Zero selects
	// DefaultRingSize. Rounded up to a power of two.
	RingSize int
	// Metrics enables per-syscall / per-process / per-mechanism
	// aggregation: a second probe engine running probe.MetricsProgram.
	Metrics bool
	// ProfileEvery samples the running thread's RIP every N virtual
	// clock ticks. Zero disables profiling.
	ProfileEvery uint64
	// Audit enables the differential shadow-map auditor: the kernel's
	// ground-truth oracle stream joined against per-mechanism
	// attribution claims (internal/audit).
	Audit bool
	// Spans enables the causal span tracer (internal/span): phase marks
	// from the kernel's side-stream assembled into per-syscall span
	// trees with critical-path attribution.
	Spans bool
	// Machine tags span sets (fleet merges key spans by machine).
	Machine string
	// SfipLearn trains an SFIP policy from this run. It forces the
	// auditor on (the learner rides the audit join's classification) and
	// surfaces the learned policy in the snapshot.
	SfipLearn bool
	// SfipPolicy, when non-nil, installs an SFIP enforcer for this
	// policy in SfipMode.
	SfipPolicy *sfip.Policy
	// SfipMode is the enforcement posture for SfipPolicy (off/log/
	// enforce).
	SfipMode sfip.Mode
	// Probes, when non-nil, runs a compiled probe program
	// (internal/probe) over the kernel's side-streams. The Compiled is
	// immutable and shareable; each observer instantiates its own
	// engine (keyed by Machine/ProbeMech), preserving the fleet's
	// no-shared-state invariant.
	Probes *probe.Compiled
	// ProbeMech is the static mechanism context the probe `mech` field
	// reports when the stream itself does not carry one (callers pass
	// the interposition mechanism the machine runs under).
	ProbeMech string
}

// Enabled reports whether any collector is requested.
func (o Options) Enabled() bool {
	return o.Trace || o.Metrics || o.Audit || o.Spans || o.ProfileEvery != 0 ||
		o.SfipLearn || o.SfipPolicy != nil || o.Probes != nil
}

// Observer bundles the collectors for one kernel (one World). Create
// with New, attach with Install, read with Snapshot.
type Observer struct {
	Opts        Options
	Ring        *Recorder      // nil unless Opts.Trace
	Metrics     *probe.Engine  // nil unless Opts.Metrics
	Profiler    *Profiler      // nil unless Opts.ProfileEvery != 0
	Audit       *audit.Auditor // nil unless Opts.Audit
	SpanBuilder *span.Builder  // nil unless Opts.Spans
	Learner     *sfip.Learner  // nil unless Opts.SfipLearn
	Enforcer    *sfip.Enforcer // nil unless Opts.SfipPolicy != nil
	Probe       *probe.Engine  // nil unless Opts.Probes != nil

	k *kernel.Kernel // set by Install; used for symbolization
}

// New builds an Observer for opts. Collectors that are off stay nil and
// cost nothing.
func New(opts Options) *Observer {
	o := &Observer{Opts: opts}
	if opts.Trace {
		o.Ring = NewRecorder(opts.RingSize)
	}
	if opts.Metrics {
		o.Metrics = metricsProgram.NewEngine(opts.Machine, opts.ProbeMech)
	}
	if opts.ProfileEvery != 0 {
		o.Profiler = NewProfiler()
	}
	if opts.Audit || opts.SfipLearn {
		o.Audit = audit.New(SyscallName)
	}
	if opts.SfipLearn {
		o.Learner = sfip.NewLearner(opts.Machine, "")
		o.Learner.Policy().NameFn = SyscallName
		o.Audit.OnOracle = o.Learner.OnOracle
	}
	if opts.SfipPolicy != nil {
		opts.SfipPolicy.NameFn = SyscallName
		o.Enforcer = sfip.NewEnforcer(opts.SfipPolicy, opts.SfipMode)
	}
	if opts.Spans {
		o.SpanBuilder = span.NewBuilder(opts.Machine)
		o.SpanBuilder.Names = SyscallName
	}
	if opts.Probes != nil {
		o.Probe = opts.Probes.NewEngine(opts.Machine, opts.ProbeMech)
	}
	return o
}

// CompileProbes parses and compiles a probe program against the obsv
// naming tables — the one-stop entry point for CLIs, the fleet, and
// the bench harness.
func CompileProbes(src string) (*probe.Compiled, error) {
	prog, err := probe.Parse(src)
	if err != nil {
		return nil, err
	}
	return probe.Compile(prog, probe.Config{
		SyscallName: SyscallName,
		SyscallNr:   SyscallNrByName,
	})
}

// Install attaches the observer to k. With no collectors enabled this
// installs nothing: EventHook and the profiler slot stay nil, so the
// kernel's `if k.Tracing()` guards keep the hot path branch-only.
// Install chains with any previously installed event hook (the fleet's
// event hasher keeps running).
func (o *Observer) Install(k *kernel.Kernel) {
	o.k = k
	if o.Enforcer != nil {
		k.Sfip = o.Enforcer
	}
	if o.Ring != nil || o.Audit != nil || o.SpanBuilder != nil || o.Enforcer != nil {
		o.installEventHook(k)
	}
	if o.Metrics != nil {
		o.Metrics.Install(k)
	}
	if o.SpanBuilder != nil {
		o.installSpanHooks(k)
	}
	if o.Probe != nil {
		// The engine chains onto the same side-stream hooks and only
		// touches the streams the program actually probes, so a probed
		// run advances neither eventSeq nor phaseSeq differently from an
		// unprobed one.
		o.Probe.Install(k)
	}
	if o.Profiler != nil {
		k.SetProfile(o.Opts.ProfileEvery, o.Profiler.Sample)
	}
}

func (o *Observer) installEventHook(k *kernel.Kernel) {
	ring, auditor, spans, enf := o.Ring, o.Audit, o.SpanBuilder, o.Enforcer
	k.AddEventHook(func(e kernel.Event) {
		// Pass down by pointer: the collectors only read the event for
		// the duration of the call, and the hook fires per syscall.
		if ring != nil {
			ring.Append(&e)
		}
		if auditor != nil {
			auditor.Handle(&e)
		}
		if spans != nil {
			spans.HandleEvent(e)
		}
		if enf != nil {
			enf.HandleEvent(&e)
		}
	})
}

// Option adapts the observer into a kernel.Option so call sites that
// build kernels indirectly (the pitfall PoCs) can thread observability
// through without importing anything beyond the option slice they
// already accept.
func Option(o *Observer) kernel.Option {
	return func(k *kernel.Kernel) { o.Install(k) }
}

// Snapshot is the frozen, mergeable, DeepEqual-comparable output of one
// Observer (or, after Merge, of a whole fleet).
type Snapshot struct {
	// Trace holds the retained flight-recorder records, oldest first.
	Trace []Record `json:"trace,omitempty"`
	// TraceSeq is the total number of events ever recorded; TraceSeq -
	// len(Trace) events were dropped to ring wraparound.
	TraceSeq uint64 `json:"trace_seq,omitempty"`
	// Metrics is nil when metrics were off. It is a view rendered from
	// metricsRows, which is what merges.
	Metrics     *MetricsSnapshot `json:"metrics,omitempty"`
	metricsRows *probe.Snapshot
	// Profile is nil when profiling was off.
	Profile *ProfileSnapshot `json:"profile,omitempty"`
	// Audit is nil when the auditor was off.
	Audit *audit.Snapshot `json:"audit,omitempty"`
	// Spans holds per-machine span sets (one per observer; more after
	// Merge), in deterministic machine order.
	Spans []*span.Set `json:"-"`
	// SfipPolicy is the policy learned this run (nil unless SfipLearn).
	SfipPolicy *sfip.Policy `json:"-"`
	// Sfip is the enforcement report (nil unless a policy was installed).
	Sfip *sfip.Report `json:"-"`
	// Probes holds the probe-engine aggregations (nil unless a program
	// was installed).
	Probes *probe.Snapshot `json:"-"`
}

// Snapshot freezes the observer's state. Call after the machine has
// quiesced (fleet does this at the end of runMachine). The kernel the
// observer was installed on supplies memory maps for profile
// symbolization and decode-cache counters for metrics.
func (o *Observer) Snapshot() *Snapshot {
	s := &Snapshot{}
	if o.Ring != nil {
		s.Trace = o.Ring.Snapshot()
		s.TraceSeq = o.Ring.Seq()
	}
	if o.Metrics != nil {
		var dc cpu.DecodeCacheStats
		if o.k != nil {
			dc = o.k.DecodeCacheStats()
		}
		s.metricsRows = o.Metrics.Snapshot()
		s.Metrics = metricsView(s.metricsRows, dc)
	}
	if o.Profiler != nil && o.k != nil {
		s.Profile = o.Profiler.Snapshot(o.k, o.Opts.ProfileEvery)
	}
	if o.Audit != nil {
		s.Audit = o.Audit.Snapshot()
	}
	if o.SpanBuilder != nil {
		s.Spans = []*span.Set{o.SpanBuilder.Finish()}
	}
	if o.Learner != nil {
		s.SfipPolicy = o.Learner.Policy()
	}
	if o.Enforcer != nil {
		s.Sfip = o.Enforcer.Report()
	}
	if o.Probe != nil {
		s.Probes = o.Probe.Snapshot()
	}
	return s
}

// Merge folds other into s: traces concatenate in machine order (each
// machine's records stay contiguous and ordered), metrics merge as probe
// rows and re-render, profiles sum per call site.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Trace = append(s.Trace, other.Trace...)
	s.TraceSeq += other.TraceSeq
	if other.metricsRows != nil {
		dc := other.Metrics.DecodeCache
		if s.metricsRows == nil {
			s.metricsRows = &probe.Snapshot{}
		} else {
			dc.Add(s.Metrics.DecodeCache)
		}
		s.metricsRows.Merge(other.metricsRows)
		s.Metrics = metricsView(s.metricsRows, dc)
	}
	if other.Profile != nil {
		if s.Profile == nil {
			s.Profile = &ProfileSnapshot{Period: other.Profile.Period}
		}
		s.Profile.Merge(other.Profile)
	}
	if other.Audit != nil {
		if s.Audit == nil {
			s.Audit = &audit.Snapshot{}
		}
		s.Audit.Merge(other.Audit)
	}
	if len(other.Spans) != 0 {
		s.Spans = span.Merge(append(s.Spans, other.Spans...))
	}
	if other.SfipPolicy != nil {
		if s.SfipPolicy == nil {
			s.SfipPolicy = sfip.NewPolicy(other.SfipPolicy.App, other.SfipPolicy.Mech)
			s.SfipPolicy.NameFn = other.SfipPolicy.NameFn
		}
		s.SfipPolicy.Merge(other.SfipPolicy)
	}
	if other.Sfip != nil {
		if s.Sfip == nil {
			s.Sfip = &sfip.Report{}
		}
		s.Sfip.Merge(other.Sfip)
	}
	if other.Probes != nil {
		if s.Probes == nil {
			s.Probes = &probe.Snapshot{}
		}
		s.Probes.Merge(other.Probes)
	}
}
