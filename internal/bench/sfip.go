// SFIP claim (EXPERIMENTS.md E21): syscall-flow-integrity enforcement
// as a sixth mechanism column. Three measurements, all in virtual
// cycles and therefore golden-comparable:
//
//  1. Pitfall-trip matrix — every Table 3 PoC under every Table 3
//     interposer, run twice: a training pass that learns a per-world
//     policy from the audit join's classification, then an enforcement
//     pass under those policies. Escapes are excluded from training, so
//     a PoC whose escape reached the audit ledger must trip the policy.
//  2. False-positive table — the nine Table 2 applications self-trained
//     and then enforced under k23-ultra+ (which covers every call, so a
//     correct learner yields zero violations).
//  3. Micro overhead — the Table 5 stress loop's marginal cycles/iter
//     with SFIP off vs enforcing, isolating the per-check hot-path cost
//     (CostModel.SfipCheck per trap-origin call).
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/obsv"
	"k23/internal/pitfalls"
	"k23/internal/sfip"
)

// SfipCell is one pitfall-trip matrix cell: what training saw and what
// enforcement caught.
type SfipCell struct {
	Pitfall    string
	Interposer string
	// Escapes counts the training run's audit-ledgered escapes (summed
	// over the PoC's worlds).
	Escapes uint64
	// Origins and Edges size the learned policies (summed over worlds).
	Origins int
	Edges   int
	// Trips counts enforcement-pass policy violations; Denied counts the
	// calls refused with EPERM.
	Trips  uint64
	Denied uint64
}

// tripped reports whether enforcement caught anything.
func (c *SfipCell) tripped() bool { return c.Trips > 0 }

// sfipPitfallMatrix runs the two-pass pitfall-trip evaluation over the
// Table 3 columns. Worlds correspond across passes by creation order
// (the PoCs are deterministic), so each enforcement-pass world runs
// under the policy its own training-pass twin learned.
func sfipPitfallMatrix(ctx context.Context) ([]SfipCell, error) {
	specs := variants.Table3Columns()
	type cellKey struct{ pitfall, interposer string }

	learned, err := pitfalls.ObservedMatrix(ctx, specs,
		func(pitfalls.PoC, variants.Spec, int) obsv.Options {
			return obsv.Options{Audit: true, SfipLearn: true}
		})
	if err != nil {
		return nil, fmt.Errorf("bench: sfip training pass: %w", err)
	}

	policies := make(map[cellKey][]*sfip.Policy, len(learned))
	cells := make([]SfipCell, 0, len(learned))
	for i := range learned {
		c := &learned[i]
		key := cellKey{c.Pitfall, c.Interposer}
		cell := SfipCell{Pitfall: c.Pitfall, Interposer: c.Interposer}
		for _, o := range c.Observers {
			if o == nil {
				policies[key] = append(policies[key], nil)
				continue
			}
			s := o.Snapshot()
			policies[key] = append(policies[key], s.SfipPolicy)
			if s.Audit != nil {
				cell.Escapes += s.Audit.Escaped()
			}
			if s.SfipPolicy != nil {
				cell.Origins += s.SfipPolicy.Origins()
				cell.Edges += s.SfipPolicy.Edges()
			}
		}
		cells = append(cells, cell)
	}

	enforced, err := pitfalls.ObservedMatrix(ctx, specs,
		func(poc pitfalls.PoC, spec variants.Spec, world int) obsv.Options {
			ps := policies[cellKey{poc.ID, spec.Name}]
			if world >= len(ps) || ps[world] == nil {
				return obsv.Options{}
			}
			return obsv.Options{SfipPolicy: ps[world], SfipMode: sfip.ModeEnforce}
		})
	if err != nil {
		return nil, fmt.Errorf("bench: sfip enforcement pass: %w", err)
	}
	if len(enforced) != len(cells) {
		return nil, fmt.Errorf("bench: sfip pass mismatch: %d training cells, %d enforcement cells",
			len(cells), len(enforced))
	}
	for i := range enforced {
		for _, o := range enforced[i].Observers {
			if o == nil {
				continue
			}
			if rep := o.Snapshot().Sfip; rep != nil {
				cells[i].Trips += rep.Violations
				cells[i].Denied += rep.Denied
			}
		}
	}
	return cells, nil
}

// SfipAppRow is one false-positive-table row: a Table 2 application
// self-trained and then enforced.
type SfipAppRow struct {
	App     string
	Origins int
	Edges   int
	// Checked counts enforcement-run policy checks; Violations counts
	// false positives (the criterion is zero).
	Checked    uint64
	Violations uint64
}

// sfipVariant is the mechanism column the app table and the determinism
// battery train under: K23's full configuration, whose complete
// coverage is what makes zero false positives achievable.
const sfipVariant = "k23-ultra+"

// sfipAppRequests is the request count a server serves in the app
// table's training and enforcement runs.
const sfipAppRequests = 30

// sfipAppTable self-trains and then enforces every Table 2 application
// under k23-ultra+. A non-zero violation count is a learner or
// enforcer defect, not an application property: training and
// enforcement see identical runs.
func sfipAppTable(ctx context.Context) ([]SfipAppRow, error) {
	spec, ok := variants.ByName(sfipVariant)
	if !ok {
		return nil, fmt.Errorf("bench: unknown variant %s", sfipVariant)
	}
	var rows []SfipAppRow
	for _, wl := range table2Apps {
		// Both runs attach after the offline phase: the controlled
		// environment is not policed.
		train, err := observe(ctx, spec, wl, obsv.New(obsv.Options{SfipLearn: true}), sfipAppRequests)
		if err != nil {
			return nil, fmt.Errorf("bench: sfip train %s: %w", wl.name, err)
		}
		policy := train.SfipPolicy
		enforce, err := observe(ctx, spec, wl, obsv.New(obsv.Options{SfipPolicy: policy, SfipMode: sfip.ModeEnforce}), sfipAppRequests)
		if err != nil {
			return nil, fmt.Errorf("bench: sfip enforce %s: %w", wl.name, err)
		}
		row := SfipAppRow{App: wl.name, Origins: policy.Origins(), Edges: policy.Edges()}
		if enforce.Sfip != nil {
			row.Checked = enforce.Sfip.Checked
			row.Violations = enforce.Sfip.Violations
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SfipMicroRow is one hot-path cost row: the micro loop's marginal
// cycles/iter with SFIP absent vs enforcing.
type SfipMicroRow struct {
	Variant string
	Off     float64
	Enforce float64
	// Delta is the per-iteration enforcement cost in cycles.
	Delta float64
}

// sfipMicroTable measures the enforcement hot-path cost for every
// Table 3 column. Training learns a complete policy for the micro loop
// (LearnAll: the overhead measurement wants a violation-free
// enforcement path, not a security verdict) at both measurement sizes,
// so every transition either run exercises is in the policy. The
// enforcer is then installed bare on the kernel after the offline phase
// (no event hook, so the delta vs the plain slope isolates the SFIP
// check itself).
func sfipMicroTable(ctx context.Context) ([]SfipMicroRow, error) {
	var rows []SfipMicroRow
	for _, spec := range variants.Table3Columns() {
		off, err := MicroSlope(ctx, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: sfip micro %s: %w", spec.Name, err)
		}
		o := obsv.New(obsv.Options{SfipLearn: true})
		o.Learner.LearnAll = true
		train, err := observe(ctx, spec, micro, o, microN1, microN2)
		if err != nil {
			return nil, fmt.Errorf("bench: sfip micro train %s: %w", spec.Name, err)
		}
		enf, err := slope(ctx, spec, micro, func(w *interpose.World) {
			w.K.Sfip = sfip.NewEnforcer(train.SfipPolicy, sfip.ModeEnforce)
		}, microN1, microN2)
		if err != nil {
			return nil, fmt.Errorf("bench: sfip micro enforce %s: %w", spec.Name, err)
		}
		rows = append(rows, SfipMicroRow{Variant: spec.Name, Off: off, Enforce: enf, Delta: enf - off})
	}
	return rows, nil
}

// writeSfipTable runs all three SFIP measurements and writes the
// golden-comparable report.
func writeSfipTable(ctx context.Context, w io.Writer) error {
	cells, err := sfipPitfallMatrix(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sfip pitfall-trip matrix (train on audit-classified runs, enforce the learned policies)\n")
	missed := 0
	for i := range cells {
		c := &cells[i]
		fmt.Fprintf(w, "[%s/%s] escapes=%d origins=%d edges=%d trips=%d denied=%d\n",
			c.Pitfall, c.Interposer, c.Escapes, c.Origins, c.Edges, c.Trips, c.Denied)
		if c.Escapes > 0 && !c.tripped() {
			missed++
		}
	}
	if missed == 0 {
		fmt.Fprintf(w, "criterion: every cell with training escapes trips under enforcement: PASS\n")
	} else {
		fmt.Fprintf(w, "criterion: %d cell(s) escaped in training without tripping enforcement: FAIL\n", missed)
	}

	rows, err := sfipAppTable(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsfip false positives (nine self-trained applications under %s)\n", sfipVariant)
	var fps uint64
	for _, r := range rows {
		fmt.Fprintf(w, "[%s] origins=%d edges=%d checked=%d violations=%d\n",
			r.App, r.Origins, r.Edges, r.Checked, r.Violations)
		fps += r.Violations
	}
	fmt.Fprintf(w, "false-positive total: %d\n", fps)

	micro, err := sfipMicroTable(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsfip micro overhead (marginal cycles/iter, virtual clock)\n")
	for _, r := range micro {
		fmt.Fprintf(w, "[%s] off=%.1f enforce=%.1f delta=%.1f\n", r.Variant, r.Off, r.Enforce, r.Delta)
	}
	return nil
}

// SfipTable is writeSfipTable into a string, for benchtab and the
// golden test.
func SfipTable(ctx context.Context) (string, error) {
	var b strings.Builder
	if err := writeSfipTable(ctx, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}
