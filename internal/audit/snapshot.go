package audit

import (
	"sort"

	"k23/internal/kernel"
)

// CoverageCell is one coverage-matrix cell: syscall × mechanism.
type CoverageCell struct {
	Nr    uint64 `json:"nr"`
	Name  string `json:"name"`
	Mech  string `json:"mechanism"`
	Count uint64 `json:"count"`
}

// EscapeStat counts one (category, syscall) escape cell.
type EscapeStat struct {
	Category string `json:"category"`
	Nr       uint64 `json:"nr"`
	Name     string `json:"name"`
	Count    uint64 `json:"count"`
}

// LedgerEntry is one proof-carrying escape record: the escaped call plus
// the trace excerpt around it.
type LedgerEntry struct {
	Category string   `json:"category"`
	PID      int      `json:"pid"`
	TID      int      `json:"tid"`
	Nr       uint64   `json:"nr"`
	Name     string   `json:"name"`
	Site     uint64   `json:"site"`
	Clock    uint64   `json:"clock"`
	Seq      uint64   `json:"seq"`
	Excerpt  []string `json:"excerpt"`
}

// ProcReport is the per-process join summary.
type ProcReport struct {
	PID             int    `json:"pid"`
	Oracles         uint64 `json:"oracles"`
	Claims          uint64 `json:"claims"`
	TTFC            uint64 `json:"ttfc"` // executed trap syscalls before the first claim
	SawExec         bool   `json:"saw_exec,omitempty"`
	ClaimsSinceExec uint64 `json:"claims_since_exec"`
	TrapsSinceExec  uint64 `json:"traps_since_exec"`
	Vdso            string `json:"vdso,omitempty"`
	Exited          bool   `json:"exited,omitempty"`
	ExitCode        int    `json:"exit_code"`
	ExitSignal      int    `json:"exit_signal"`
	StaleFetches    uint64 `json:"stale_fetches,omitempty"`
}

// WindowStat is one virtual-clock window tally.
type WindowStat struct {
	Index   uint64 `json:"index"`
	Oracles uint64 `json:"oracles"`
	Covered uint64 `json:"covered"`
	Escapes uint64 `json:"escapes"`
}

// GuardMemStat tracks the peak footprint of one guard structure.
type GuardMemStat struct {
	Kind             string `json:"kind"`
	MaxReservedBytes uint64 `json:"max_reserved_bytes"`
	MaxResidentBytes uint64 `json:"max_resident_bytes"`
}

// Totals are the scalar join counters.
type Totals struct {
	Oracles             uint64 `json:"oracles"`
	Claims              uint64 `json:"claims"`
	Covered             uint64 `json:"covered"`
	Emulated            uint64 `json:"emulated"`
	Escaped             uint64 `json:"escaped"`
	Internal            uint64 `json:"internal"`
	SignalInfra         uint64 `json:"signal_infra"`
	Retries             uint64 `json:"retries"`
	DoubleInterposition uint64 `json:"double_interposition"`
	Misattributed       uint64 `json:"misattributed"`
	Unresolved          uint64 `json:"unresolved"`

	RewritesGenuine       uint64 `json:"rewrites_genuine"`
	RewritesMisidentified uint64 `json:"rewrites_misidentified"`
	PermClobbers          uint64 `json:"perm_clobbers"`
	VdsoMapped            uint64 `json:"vdso_mapped"`
	VdsoDisabled          uint64 `json:"vdso_disabled"`
	SignalDeaths          uint64 `json:"signal_deaths"`
	StaleFetches          uint64 `json:"stale_fetches"`
	UnknownSyscalls       uint64 `json:"unknown_syscalls"`
}

// Snapshot is the frozen, mergeable, DeepEqual-comparable audit report
// of one World (or, after Merge, of a fleet). All collections are
// sorted slices.
type Snapshot struct {
	Totals   Totals         `json:"totals"`
	Coverage []CoverageCell `json:"coverage,omitempty"`
	Escapes  []EscapeStat   `json:"escapes,omitempty"`
	Ledger   []LedgerEntry  `json:"ledger,omitempty"`
	Procs    []ProcReport   `json:"procs,omitempty"`
	Windows  []WindowStat   `json:"windows,omitempty"`
	GuardMem []GuardMemStat `json:"guard_mem,omitempty"`
}

// Escaped sums the escape counts across categories.
func (s *Snapshot) Escaped() uint64 {
	var n uint64
	for i := range s.Escapes {
		n += s.Escapes[i].Count
	}
	return n
}

// EscapedIn sums the escape counts of one category.
func (s *Snapshot) EscapedIn(category string) uint64 {
	var n uint64
	for i := range s.Escapes {
		if s.Escapes[i].Category == category {
			n += s.Escapes[i].Count
		}
	}
	return n
}

// CoveredBy sums the coverage counts of one mechanism.
func (s *Snapshot) CoveredBy(mech string) uint64 {
	var n uint64
	for i := range s.Coverage {
		if s.Coverage[i].Mech == mech {
			n += s.Coverage[i].Count
		}
	}
	return n
}

// MainProc returns the report of the first process observed (the
// workload's root), or nil.
func (s *Snapshot) MainProc() *ProcReport {
	if len(s.Procs) == 0 {
		return nil
	}
	return &s.Procs[0]
}

// Snapshot freezes the auditor's state into sorted slices. Claims still
// pending (interposer died mid-call, machine stopped on budget) surface
// as Totals.Unresolved, never as escapes.
func (a *Auditor) Snapshot() *Snapshot {
	s := &Snapshot{
		Totals: Totals{
			Oracles:             a.totOracles,
			Claims:              a.totClaims,
			Covered:             a.covered,
			Emulated:            a.emulated,
			Internal:            a.internal,
			SignalInfra:         a.signalInfra,
			Retries:             a.retries,
			DoubleInterposition: a.doubleClaims,
			Misattributed:       a.misattrib,

			RewritesGenuine:       a.rewriteGenuine,
			RewritesMisidentified: a.rewriteMisID,
			PermClobbers:          a.permClobbers,
			VdsoMapped:            a.vdsoMapped,
			VdsoDisabled:          a.vdsoDisabled,
			SignalDeaths:          a.signalDeaths,
			StaleFetches:          a.staleFetches,
			UnknownSyscalls:       a.unknownSyscalls,
		},
	}
	for _, stack := range a.claims {
		s.Totals.Unresolved += uint64(len(stack))
	}

	for k, n := range a.coverage {
		s.Coverage = append(s.Coverage, CoverageCell{Nr: k.nr, Name: kernel.SyscallName(k.nr), Mech: k.mech, Count: n})
	}
	sort.Slice(s.Coverage, func(i, j int) bool {
		if s.Coverage[i].Nr != s.Coverage[j].Nr {
			return s.Coverage[i].Nr < s.Coverage[j].Nr
		}
		return s.Coverage[i].Mech < s.Coverage[j].Mech
	})

	for k, n := range a.escapes {
		s.Escapes = append(s.Escapes, EscapeStat{Category: k.category, Nr: k.nr, Name: kernel.SyscallName(k.nr), Count: n})
		s.Totals.Escaped += n
	}
	sort.Slice(s.Escapes, func(i, j int) bool {
		if s.Escapes[i].Category != s.Escapes[j].Category {
			return s.Escapes[i].Category < s.Escapes[j].Category
		}
		return s.Escapes[i].Nr < s.Escapes[j].Nr
	})

	for _, cat := range sortedKeys(a.ledger) {
		s.Ledger = append(s.Ledger, a.ledger[cat]...)
	}

	for _, pid := range a.procSeen {
		p := a.procs[pid]
		s.Procs = append(s.Procs, ProcReport{
			PID:             p.pid,
			Oracles:         p.oracles,
			Claims:          p.claims,
			TTFC:            p.ttfc,
			SawExec:         p.sawExec,
			ClaimsSinceExec: p.claimsSinceExec,
			TrapsSinceExec:  p.trapsSinceExec,
			Vdso:            p.vdso,
			Exited:          p.exited,
			ExitCode:        p.exitCode,
			ExitSignal:      p.exitSignal,
			StaleFetches:    p.stale,
		})
	}

	for idx, w := range a.windows {
		s.Windows = append(s.Windows, WindowStat{Index: idx, Oracles: w.oracles, Covered: w.covered, Escapes: w.escapes})
	}
	sort.Slice(s.Windows, func(i, j int) bool { return s.Windows[i].Index < s.Windows[j].Index })

	for _, kind := range sortedKeys(a.guardMem) {
		s.GuardMem = append(s.GuardMem, *a.guardMem[kind])
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Merge folds other into s (fleet-level aggregation): scalar totals add,
// matrix cells merge by key, per-process reports and ledger entries
// concatenate in machine order (each machine's records stay contiguous).
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Totals.Oracles += other.Totals.Oracles
	s.Totals.Claims += other.Totals.Claims
	s.Totals.Covered += other.Totals.Covered
	s.Totals.Emulated += other.Totals.Emulated
	s.Totals.Escaped += other.Totals.Escaped
	s.Totals.Internal += other.Totals.Internal
	s.Totals.SignalInfra += other.Totals.SignalInfra
	s.Totals.Retries += other.Totals.Retries
	s.Totals.DoubleInterposition += other.Totals.DoubleInterposition
	s.Totals.Misattributed += other.Totals.Misattributed
	s.Totals.Unresolved += other.Totals.Unresolved
	s.Totals.RewritesGenuine += other.Totals.RewritesGenuine
	s.Totals.RewritesMisidentified += other.Totals.RewritesMisidentified
	s.Totals.PermClobbers += other.Totals.PermClobbers
	s.Totals.VdsoMapped += other.Totals.VdsoMapped
	s.Totals.VdsoDisabled += other.Totals.VdsoDisabled
	s.Totals.SignalDeaths += other.Totals.SignalDeaths
	s.Totals.StaleFetches += other.Totals.StaleFetches
	s.Totals.UnknownSyscalls += other.Totals.UnknownSyscalls

	s.Coverage = mergeCells(s.Coverage, other.Coverage,
		func(c CoverageCell) covCellKey { return covCellKey{c.Nr, c.Mech} },
		func(a, b CoverageCell) CoverageCell { a.Count += b.Count; return a },
		func(i, j CoverageCell) bool {
			if i.Nr != j.Nr {
				return i.Nr < j.Nr
			}
			return i.Mech < j.Mech
		})
	s.Escapes = mergeCells(s.Escapes, other.Escapes,
		func(c EscapeStat) escCellKey { return escCellKey{c.Category, c.Nr} },
		func(a, b EscapeStat) EscapeStat { a.Count += b.Count; return a },
		func(i, j EscapeStat) bool {
			if i.Category != j.Category {
				return i.Category < j.Category
			}
			return i.Nr < j.Nr
		})
	s.Windows = mergeCells(s.Windows, other.Windows,
		func(w WindowStat) uint64 { return w.Index },
		func(a, b WindowStat) WindowStat {
			a.Oracles += b.Oracles
			a.Covered += b.Covered
			a.Escapes += b.Escapes
			return a
		},
		func(i, j WindowStat) bool { return i.Index < j.Index })
	s.GuardMem = mergeCells(s.GuardMem, other.GuardMem,
		func(g GuardMemStat) string { return g.Kind },
		func(a, b GuardMemStat) GuardMemStat {
			if b.MaxReservedBytes > a.MaxReservedBytes {
				a.MaxReservedBytes = b.MaxReservedBytes
			}
			if b.MaxResidentBytes > a.MaxResidentBytes {
				a.MaxResidentBytes = b.MaxResidentBytes
			}
			return a
		},
		func(i, j GuardMemStat) bool { return i.Kind < j.Kind })

	s.Ledger = append(s.Ledger, other.Ledger...)
	s.Procs = append(s.Procs, other.Procs...)
}

type covCellKey struct {
	nr   uint64
	mech string
}

type escCellKey struct {
	category string
	nr       uint64
}

func mergeCells[T any, K comparable](dst, src []T, key func(T) K, add func(a, b T) T, less func(i, j T) bool) []T {
	idx := make(map[K]int, len(dst))
	for i, v := range dst {
		idx[key(v)] = i
	}
	for _, v := range src {
		if i, ok := idx[key(v)]; ok {
			dst[i] = add(dst[i], v)
		} else {
			idx[key(v)] = len(dst)
			dst = append(dst, v)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return less(dst[i], dst[j]) })
	return dst
}
