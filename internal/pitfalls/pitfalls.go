// Package pitfalls implements the System Call Interposition Pitfalls
// proof-of-concept suite (paper §4): one machine-checkable PoC per
// pitfall (P1a, P1b, P2a, P2b, P3a, P3b, P4a, P4b, P5), plus the matrix
// runner that regenerates Table 3 by executing every PoC against every
// interposer.
//
// Each PoC distinguishes a benign input (used when an offline profile is
// required) from an attack input, mirroring the paper's threat model: the
// offline phase runs in a controlled environment, the attack happens in
// production.
package pitfalls

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"k23/internal/audit"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/machine"
	"k23/internal/obsv"
)

// Result is one cell of the Table 3 matrix.
type Result struct {
	Pitfall    string
	Interposer string
	Handled    bool
	Detail     string
}

// PoC is one pitfall proof of concept.
type PoC struct {
	// ID is the paper's pitfall label ("P1a" ... "P5").
	ID string
	// Title is a one-line description.
	Title string

	run func(h harness, spec variants.Spec) (bool, string, error)
}

// All returns the PoCs in paper order.
func All() []PoC {
	return []PoC{
		{"P1a", "Interposition bypass via environment scrubbing (Listing 1)", runP1a},
		{"P1b", "Interposition bypass via prctl SUD-off (Listing 2)", runP1b},
		{"P2a", "System call overlook: code loaded after rewriting", runP2a},
		{"P2b", "System call overlook: startup and vdso calls", runP2b},
		{"P3a", "Misidentification: embedded data rewritten (disassembly)", runP3a},
		{"P3b", "Misidentification: hijacked partial instruction rewritten", runP3b},
		{"P4a", "NULL-code-pointer execution diverted into the trampoline", runP4a},
		{"P4b", "NULL-execution-check memory overhead", runP4b},
		{"P5", "Runtime rewriting: torn writes, stale I-cache, lost permissions", runP5},
	}
}

// Run executes the PoC under the given variant and reports whether the
// interposer handles the pitfall. Kernel options apply to every world
// the PoC builds (the decode-cache parity tests run whole scenarios with
// the cache disabled this way).
func (poc PoC) Run(spec variants.Spec, opts ...kernel.Option) (handled bool, detail string, err error) {
	c, err := poc.Observe(context.Background(), spec, nil, opts...)
	return c.Handled, c.Detail, err
}

// Observe runs the PoC under spec as one Table 3 cell. With optsFor
// non-nil, each world the PoC builds gets an observer with the
// collectors optsFor chooses for it (by creation index), attached at the
// runner's attach point: after any offline phase, which is the paper's
// controlled environment and not part of the production attack surface.
// The observers see only the kernel's event stream, never the PoC's own
// hook counters. Every run the PoC drives checks ctx before each slice.
func (poc PoC) Observe(ctx context.Context, spec variants.Spec, optsFor func(world int) obsv.Options,
	opts ...kernel.Option) (ObservedCell, error) {
	h := harness{ctx: ctx, opts: opts}
	if optsFor != nil {
		h.optsFor, h.observers = optsFor, new([]*obsv.Observer)
	}
	handled, detail, err := poc.run(h, spec)
	c := ObservedCell{Result: Result{Pitfall: poc.ID, Interposer: spec.Name, Handled: handled, Detail: detail}}
	if h.observers != nil {
		c.Observers = *h.observers
	}
	return c, err
}

// Matrix runs every PoC against every given variant. Kernel options are
// forwarded to every world the PoCs construct.
func Matrix(ctx context.Context, specs []variants.Spec, opts ...kernel.Option) ([]Result, error) {
	cells, err := ObservedMatrix(ctx, specs, nil, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cells))
	for i := range cells {
		out[i] = cells[i].Result
	}
	return out, nil
}

// AuditCell pairs a matrix cell's hand-asserted result with the
// shadow-map auditor's independent stream-derived verdict for the same
// run.
type AuditCell struct {
	Result
	// AuditHandled is the verdict audit.PitfallVerdict derived purely
	// from the ground-truth vs attribution streams.
	AuditHandled bool
	// AuditDetail explains the audit verdict.
	AuditDetail string
	// Snapshots holds the audit report of every world the PoC ran, in
	// creation order.
	Snapshots []*audit.Snapshot
}

// Agree reports whether the auditor rediscovered the PoC's verdict.
func (c *AuditCell) Agree() bool { return c.Handled == c.AuditHandled }

// ObservedCell pairs one matrix cell with the observers attached to the
// worlds its PoC built, in creation order. Observers[i] is nil when the
// options for world i enabled no collector.
type ObservedCell struct {
	Result
	Observers []*obsv.Observer
}

// ObservedMatrix runs every PoC against every variant as
// PoC.Observe cells; optsFor chooses the collectors per (PoC, variant,
// world index), and nil attaches none. Matrix, AuditMatrix and the SFIP
// evaluation (internal/bench) are built on this runner. Every cell runs
// under ctx, and no cell starts once ctx is done: the matrix then
// returns ctx's error.
func ObservedMatrix(ctx context.Context, specs []variants.Spec, optsFor func(poc PoC, spec variants.Spec, world int) obsv.Options,
	opts ...kernel.Option) ([]ObservedCell, error) {
	var out []ObservedCell
	for _, poc := range All() {
		for _, spec := range specs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var cellOpts func(int) obsv.Options
			if optsFor != nil {
				cellOpts = func(world int) obsv.Options { return optsFor(poc, spec, world) }
			}
			c, err := poc.Observe(ctx, spec, cellOpts, opts...)
			if err != nil {
				return nil, fmt.Errorf("pitfalls: %s under %s: %w", poc.ID, spec.Name, err)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// AuditMatrix runs every PoC against every variant with a shadow-map
// auditor attached to each world at production start.
func AuditMatrix(ctx context.Context, specs []variants.Spec, opts ...kernel.Option) ([]AuditCell, error) {
	cells, err := ObservedMatrix(ctx, specs,
		func(PoC, variants.Spec, int) obsv.Options { return obsv.Options{Audit: true} }, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]AuditCell, 0, len(cells))
	for i := range cells {
		c := &cells[i]
		snaps := make([]*audit.Snapshot, 0, len(c.Observers))
		for _, o := range c.Observers {
			snaps = append(snaps, o.Snapshot().Audit)
		}
		ah, ad := audit.PitfallVerdict(c.Pitfall, snaps)
		out = append(out, AuditCell{
			Result:       c.Result,
			AuditHandled: ah,
			AuditDetail:  ad,
			Snapshots:    snaps,
		})
	}
	return out, nil
}

// FormatMatrix renders results as the Table 3 grid.
func FormatMatrix(results []Result) string {
	var b strings.Builder
	writeGrid(&b, results, func(i int) string { return verdict(results[i].Handled) })
	return b.String()
}

// FormatAuditMatrix renders the audit parity view of the Table 3
// matrix: each cell carries the hand-asserted verdict, suffixed with
// "*" when the stream-derived audit verdict disagrees. The trailing
// summary line counts the disagreements.
func FormatAuditMatrix(cells []AuditCell) string {
	results := make([]Result, len(cells))
	for i := range cells {
		results[i] = cells[i].Result
	}
	var b strings.Builder
	disagreements := 0
	writeGrid(&b, results, func(i int) string {
		if cells[i].Agree() {
			return verdict(cells[i].Handled)
		}
		disagreements++
		return verdict(cells[i].Handled) + "*"
	})
	if disagreements == 0 {
		fmt.Fprintf(&b, "\naudit parity: every verdict independently rediscovered from the syscall streams\n")
	} else {
		fmt.Fprintf(&b, "\naudit parity: %d cell(s) marked * — audit verdict disagrees with the PoC\n", disagreements)
	}
	return b.String()
}

// writeGrid writes the Table 3 grid: one column per interposer and one
// row per pitfall, both in first-seen order, holding mark(i) for
// cells[i] and "?" where no cell exists.
func writeGrid(b *strings.Builder, cells []Result, mark func(i int) string) {
	var cols, rows []string
	at := map[[2]string]int{}
	for i, c := range cells {
		if !slices.Contains(cols, c.Interposer) {
			cols = append(cols, c.Interposer)
		}
		if !slices.Contains(rows, c.Pitfall) {
			rows = append(rows, c.Pitfall)
		}
		at[[2]string{c.Pitfall, c.Interposer}] = i
	}
	fmt.Fprintf(b, "%-6s", "")
	for _, c := range cols {
		fmt.Fprintf(b, " %-16s", c)
	}
	b.WriteByte('\n')
	for _, pid := range rows {
		fmt.Fprintf(b, "%-6s", pid)
		for _, c := range cols {
			m := "?"
			if i, ok := at[[2]string{pid, c}]; ok {
				m = mark(i)
			}
			fmt.Fprintf(b, " %-16s", m)
		}
		b.WriteByte('\n')
	}
}

// verdict renders a handled flag as a Table 3 cell.
func verdict(handled bool) string {
	if handled {
		return "YES"
	}
	return "no"
}

// ---------------------------------------------------------------------
// shared harness
// ---------------------------------------------------------------------

// harness is what a PoC builds its worlds with: the context its runs
// check, the kernel options for every world and, when optsFor is set,
// the collectors of the observer each world gets at the runner's attach
// point, appended to *observers.
type harness struct {
	ctx       context.Context
	opts      []kernel.Option
	optsFor   func(world int) obsv.Options
	observers *[]*obsv.Observer
}

// world builds a fresh world with the PoC binaries and workload apps
// registered.
func (h harness) world() *interpose.World {
	w := interpose.NewWorld(h.opts...)
	_ = machine.StandardSetup(w)
	registerPoCBinaries(w)
	return w
}

// launcher constructs the launcher for a spec through the runner, which
// runs the offline phase with benign arguments first when the variant
// needs a log, then attaches the observers. PoC binaries are
// self-contained; signal deaths during the offline run (e.g. a
// deliberately crashing benign path) still produce a usable log.
func (h harness) launcher(w *interpose.World, spec variants.Spec, cfg interpose.Config,
	target string, benignArgv []string) (interpose.Launcher, error) {
	l, err := machine.Launcher(h.ctx, w, spec, cfg, target, benignArgv, 0)
	if err != nil {
		return nil, err
	}
	if h.optsFor != nil {
		var o *obsv.Observer
		if oo := h.optsFor(len(*h.observers)); oo.Enabled() {
			o = obsv.New(oo)
			o.Install(w.K)
		}
		*h.observers = append(*h.observers, o)
	}
	return l, nil
}

// runUnder runs target under the spec with the hook config to exit
// through machine.Exec (signal deaths are verdicts, not errors) and
// returns world, launcher and process. A run that exhausts its budget
// or deadlocks is an error naming the target and the mechanism.
func (h harness) runUnder(spec variants.Spec, cfg interpose.Config, target string,
	benignArgv, attackArgv []string) (*interpose.World, interpose.Launcher, *kernel.Process, error) {
	w := h.world()
	l, err := h.launcher(w, spec, cfg, target, benignArgv)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := machine.Exec(h.ctx, w, l, target, attackArgv, 0, 200_000_000)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, l, p, nil
}
