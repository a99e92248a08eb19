// Coverage claim: ground-truth syscall coverage matrices per
// (mechanism x app), measured by the shadow-map audit layer
// (internal/audit) rather than asserted by the interposers themselves.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"k23/internal/apps"
	"k23/internal/audit"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/machine"
	"k23/internal/obsv"
)

// CoverageApps returns the coreutils workloads the coverage claim runs:
// quick, deterministic, and with overlapping syscall sets so the
// per-mechanism matrices are comparable across columns.
func CoverageApps() []MacroConfig {
	pwd, ls, cat := coreutilConfigs()
	return []MacroConfig{pwd, ls, cat}
}

// CoverageVariants lists the coverage-claim columns: one per
// interposition path (load-time rewriting, lazy rewriting, SUD, ptrace,
// and the full K23 stack).
func CoverageVariants() []string {
	return []string{"zpoline-ultra", "lazypoline", "sud", "ptrace", "k23-ultra+"}
}

// AuditApp runs one non-server workload to completion under the given
// variant with the shadow-map auditor attached at production start —
// after any offline phase, which is the controlled environment — and
// returns the audit snapshot.
func AuditApp(spec variants.Spec, path string, argv []string) (*audit.Snapshot, error) {
	w, err := macroWorld()
	if err != nil {
		return nil, err
	}
	l, err := machine.Launcher(context.Background(), w, spec, interpose.Config{}, path, argv, 0)
	if err != nil {
		return nil, err
	}
	o := obsv.New(obsv.Options{Audit: true})
	o.Install(w.K)
	p, err := l.Launch(w, path, argv, nil)
	if err != nil {
		return nil, err
	}
	if err := w.K.RunUntilExit(p, 3_000_000_000); err != nil {
		return nil, err
	}
	if p.Exit.Signal != 0 {
		return nil, fmt.Errorf("bench: %s under %s died: %s", path, l.Name(), p.Exit)
	}
	return o.Snapshot().Audit, nil
}

// coreutilConfigs builds the non-server workload configs the coverage
// claim uses (reusing MacroConfig for its Name/Path/Argv triple).
func coreutilConfigs() (pwd, ls, cat MacroConfig) {
	pwd = MacroConfig{Name: "pwd", Path: apps.PwdPath, Argv: []string{"pwd"}}
	ls = MacroConfig{Name: "ls", Path: apps.LsPath, Argv: []string{"ls", "/data"}}
	cat = MacroConfig{Name: "cat", Path: apps.CatPath, Argv: []string{"cat", "/data/notes.txt"}}
	return
}

// WriteCoverageTable runs every coverage app under every coverage
// variant and writes the golden-comparable coverage matrix: per-cell
// totals plus the full per-syscall x per-mechanism counts and escapes by
// category. All ordering comes from the audit snapshot's sorted slices.
func WriteCoverageTable(w io.Writer) error {
	for _, name := range CoverageVariants() {
		spec, ok := variants.ByName(name)
		if !ok {
			return fmt.Errorf("bench: unknown coverage variant %q", name)
		}
		for _, app := range CoverageApps() {
			s, err := AuditApp(spec, app.Path, app.Argv)
			if err != nil {
				return err
			}
			FormatCoverageCell(w, app.Name, name, s)
		}
	}
	return nil
}

// CoverageTable is WriteCoverageTable into a string, for benchtab and
// the golden test.
func CoverageTable() (string, error) {
	var b strings.Builder
	if err := WriteCoverageTable(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// FormatCoverageCell renders one (app, variant) audit snapshot in the
// golden table format.
func FormatCoverageCell(w io.Writer, app, variant string, s *audit.Snapshot) {
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
