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
	// Run executes the PoC under the given variant and reports whether
	// the interposer handles the pitfall. Kernel options apply to every
	// world the PoC builds internally (the decode-cache parity tests
	// run whole scenarios with the cache disabled this way).
	Run func(spec variants.Spec, opts ...kernel.Option) (handled bool, detail string, err error)

	run func(h harness, spec variants.Spec) (bool, string, error)
}

// newPoC builds a PoC whose Run uses a harness without observers.
func newPoC(id, title string, run func(h harness, spec variants.Spec) (bool, string, error)) PoC {
	return PoC{ID: id, Title: title, run: run,
		Run: func(spec variants.Spec, opts ...kernel.Option) (bool, string, error) {
			return run(harness{opts: opts}, spec)
		}}
}

// All returns the PoCs in paper order.
func All() []PoC {
	return []PoC{
		newPoC("P1a", "Interposition bypass via environment scrubbing (Listing 1)", runP1a),
		newPoC("P1b", "Interposition bypass via prctl SUD-off (Listing 2)", runP1b),
		newPoC("P2a", "System call overlook: code loaded after rewriting", runP2a),
		newPoC("P2b", "System call overlook: startup and vdso calls", runP2b),
		newPoC("P3a", "Misidentification: embedded data rewritten (disassembly)", runP3a),
		newPoC("P3b", "Misidentification: hijacked partial instruction rewritten", runP3b),
		newPoC("P4a", "NULL-code-pointer execution diverted into the trampoline", runP4a),
		newPoC("P4b", "NULL-execution-check memory overhead", runP4b),
		newPoC("P5", "Runtime rewriting: torn writes, stale I-cache, lost permissions", runP5),
	}
}

// Matrix runs every PoC against every given variant. Kernel options are
// forwarded to every world the PoCs construct.
func Matrix(specs []variants.Spec, opts ...kernel.Option) ([]Result, error) {
	var out []Result
	for _, poc := range All() {
		for _, spec := range specs {
			handled, detail, err := poc.Run(spec, opts...)
			if err != nil {
				return nil, fmt.Errorf("pitfalls: %s under %s: %w", poc.ID, spec.Name, err)
			}
			out = append(out, Result{
				Pitfall:    poc.ID,
				Interposer: spec.Name,
				Handled:    handled,
				Detail:     detail,
			})
		}
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

// ObservedMatrix runs every PoC against every variant with an observer
// attached to each world at production start — after any offline phase,
// which is the paper's controlled environment and not part of the
// production attack surface. optsFor chooses the collectors per (PoC,
// variant, world index); the observers see only the kernel's event
// stream, never the PoCs' internal hook counters. AuditMatrix and the
// SFIP evaluation (internal/bench) are built on this runner.
func ObservedMatrix(specs []variants.Spec, optsFor func(poc PoC, spec variants.Spec, world int) obsv.Options,
	opts ...kernel.Option) ([]ObservedCell, error) {
	var out []ObservedCell
	for _, poc := range All() {
		for _, spec := range specs {
			var observers []*obsv.Observer
			attach := func(w *interpose.World) {
				oo := optsFor(poc, spec, len(observers))
				if !oo.Enabled() {
					observers = append(observers, nil)
					return
				}
				o := obsv.New(oo)
				o.Install(w.K)
				observers = append(observers, o)
			}
			handled, detail, err := poc.run(harness{opts: opts, attach: attach}, spec)
			if err != nil {
				return nil, fmt.Errorf("pitfalls: %s under %s: %w", poc.ID, spec.Name, err)
			}
			out = append(out, ObservedCell{
				Result: Result{
					Pitfall:    poc.ID,
					Interposer: spec.Name,
					Handled:    handled,
					Detail:     detail,
				},
				Observers: observers,
			})
		}
	}
	return out, nil
}

// AuditMatrix runs every PoC against every variant with a shadow-map
// auditor attached to each world at production start.
func AuditMatrix(specs []variants.Spec, opts ...kernel.Option) ([]AuditCell, error) {
	cells, err := ObservedMatrix(specs,
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
	cols := []string{}
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Interposer] {
			seen[r.Interposer] = true
			cols = append(cols, r.Interposer)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %-16s", c)
	}
	b.WriteByte('\n')
	byPitfall := map[string]map[string]Result{}
	var order []string
	for _, r := range results {
		if byPitfall[r.Pitfall] == nil {
			byPitfall[r.Pitfall] = map[string]Result{}
			order = append(order, r.Pitfall)
		}
		byPitfall[r.Pitfall][r.Interposer] = r
	}
	for _, pid := range order {
		fmt.Fprintf(&b, "%-6s", pid)
		for _, c := range cols {
			mark := "?"
			if r, ok := byPitfall[pid][c]; ok {
				if r.Handled {
					mark = "YES"
				} else {
					mark = "no"
				}
			}
			fmt.Fprintf(&b, " %-16s", mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatAuditMatrix renders the audit parity view of the Table 3
// matrix: each cell carries the hand-asserted verdict, suffixed with
// "*" when the stream-derived audit verdict disagrees. The trailing
// summary line counts the disagreements.
func FormatAuditMatrix(cells []AuditCell) string {
	cols := []string{}
	seen := map[string]bool{}
	for i := range cells {
		if !seen[cells[i].Interposer] {
			seen[cells[i].Interposer] = true
			cols = append(cols, cells[i].Interposer)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "")
	for _, c := range cols {
		fmt.Fprintf(&b, " %-16s", c)
	}
	b.WriteByte('\n')
	byPitfall := map[string]map[string]AuditCell{}
	var order []string
	for i := range cells {
		c := cells[i]
		if byPitfall[c.Pitfall] == nil {
			byPitfall[c.Pitfall] = map[string]AuditCell{}
			order = append(order, c.Pitfall)
		}
		byPitfall[c.Pitfall][c.Interposer] = c
	}
	disagreements := 0
	for _, pid := range order {
		fmt.Fprintf(&b, "%-6s", pid)
		for _, col := range cols {
			mark := "?"
			if c, ok := byPitfall[pid][col]; ok {
				if c.Handled {
					mark = "YES"
				} else {
					mark = "no"
				}
				if !c.Agree() {
					mark += "*"
					disagreements++
				}
			}
			fmt.Fprintf(&b, " %-16s", mark)
		}
		b.WriteByte('\n')
	}
	if disagreements == 0 {
		fmt.Fprintf(&b, "\naudit parity: every verdict independently rediscovered from the syscall streams\n")
	} else {
		fmt.Fprintf(&b, "\naudit parity: %d cell(s) marked * — audit verdict disagrees with the PoC\n", disagreements)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// shared harness
// ---------------------------------------------------------------------

// harness is what a PoC builds its worlds with: the kernel options for
// every world, and the function attaching observers to each world at
// the runner's attach point (nil: none).
type harness struct {
	opts   []kernel.Option
	attach func(w *interpose.World)
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
	l, err := machine.Launcher(context.Background(), w, spec, cfg, target, benignArgv, 0)
	if err != nil {
		return nil, err
	}
	if h.attach != nil {
		h.attach(w)
	}
	return l, nil
}

// runUnder launches target under the spec with the hook config, runs it
// to completion (tolerating signal deaths), and returns launcher+process.
func (h harness) runUnder(spec variants.Spec, cfg interpose.Config, target string,
	benignArgv, attackArgv []string) (*interpose.World, interpose.Launcher, *kernel.Process, error) {
	w := h.world()
	l, err := h.launcher(w, spec, cfg, target, benignArgv)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := l.Launch(w, target, attackArgv, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	_ = w.K.RunUntilExit(p, 200_000_000)
	return w, l, p, nil
}
