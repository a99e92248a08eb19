// Coverage claim: ground-truth syscall coverage matrices per
// (mechanism x app), measured by the shadow-map audit layer
// (internal/audit) rather than asserted by the interposers themselves.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"k23/internal/audit"
	"k23/internal/interpose/variants"
	"k23/internal/obsv"
)

// coverageApps returns the coreutils workloads the coverage claim runs:
// quick, deterministic, and with overlapping syscall sets so the
// per-mechanism matrices are comparable across columns.
func coverageApps() []workload { return []workload{pwd, ls, cat} }

// coverageVariants lists the coverage-claim columns: one per
// interposition path (load-time rewriting, lazy rewriting, SUD, ptrace,
// and the full K23 stack).
func coverageVariants() []string {
	return []string{"zpoline-ultra", "lazypoline", "sud", "ptrace", "k23-ultra+"}
}

// writeCoverageTable runs every coverage app under every coverage
// variant and writes the golden-comparable coverage matrix: per-cell
// totals plus the full per-syscall x per-mechanism counts and escapes by
// category. All ordering comes from the audit snapshot's sorted slices.
func writeCoverageTable(ctx context.Context, w io.Writer) error {
	for _, name := range coverageVariants() {
		spec, ok := variants.ByName(name)
		if !ok {
			return fmt.Errorf("bench: unknown coverage variant %q", name)
		}
		for _, app := range coverageApps() {
			// The auditor attaches after any offline phase, which is the
			// controlled environment.
			s, err := observe(ctx, spec, app, obsv.New(obsv.Options{Audit: true}), 0)
			if err != nil {
				return err
			}
			formatCoverageCell(w, app.name, name, s.Audit)
		}
	}
	return nil
}

// CoverageTable is writeCoverageTable into a string, for benchtab and
// the golden test.
func CoverageTable(ctx context.Context) (string, error) {
	var b strings.Builder
	if err := writeCoverageTable(ctx, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// formatCoverageCell renders one (app, variant) audit snapshot in the
// golden table format.
func formatCoverageCell(w io.Writer, app, variant string, s *audit.Snapshot) {
	t := &s.Totals
	ttfc := uint64(0)
	if p := s.MainProc(); p != nil {
		ttfc = p.TTFC
	}
	fmt.Fprintf(w, "[%s/%s] executed=%d covered=%d emulated=%d escaped=%d internal=%d ttfc=%d\n",
		app, variant, t.Oracles, t.Covered, t.Emulated, t.Escaped, t.Internal, ttfc)
	byMech := map[string][]audit.CoverageCell{}
	var mechs []string
	for _, c := range s.Coverage {
		if _, ok := byMech[c.Mech]; !ok {
			mechs = append(mechs, c.Mech)
		}
		byMech[c.Mech] = append(byMech[c.Mech], c)
	}
	// Coverage is sorted by (nr, mech); render mechanisms in first-seen
	// order of that sort for stability.
	for _, mech := range sortStrings(mechs) {
		var parts []string
		for _, c := range byMech[mech] {
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Count))
		}
		fmt.Fprintf(w, "  mech %s: %s\n", mech, strings.Join(parts, " "))
	}
	byCat := map[string][]audit.EscapeStat{}
	var cats []string
	for _, e := range s.Escapes {
		if _, ok := byCat[e.Category]; !ok {
			cats = append(cats, e.Category)
		}
		byCat[e.Category] = append(byCat[e.Category], e)
	}
	for _, cat := range sortStrings(cats) {
		var parts []string
		for _, e := range byCat[cat] {
			parts = append(parts, fmt.Sprintf("%s=%d", e.Name, e.Count))
		}
		fmt.Fprintf(w, "  escapes %s: %s\n", cat, strings.Join(parts, " "))
	}
}

func sortStrings(in []string) []string {
	out := append([]string(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
