package obsv

import (
	"fmt"
	"io"
	"path"
	"sort"

	"k23/internal/kernel"
)

// DefaultProfileEvery is the sampling period, in virtual-clock ticks,
// when Options.ProfileEvery is left zero but profiling is requested.
const DefaultProfileEvery = 1024

// Profiler is a sampling guest profiler. The kernel calls Sample every
// N virtual-clock ticks with the running thread's RIP; samples
// accumulate into a weighted call-site table that is symbolized against
// the guest's memory map at snapshot time.
//
// Sampling is driven by the deterministic virtual clock, never by host
// time, so profiles from identical runs are bit-identical regardless of
// fleet worker count.
type Profiler struct {
	samples map[siteKey]uint64
}

type siteKey struct {
	tid int
	rip uint64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{samples: make(map[siteKey]uint64)}
}

// Sample records one virtual-clock hit at rip on thread tid.
// This is the kernel.ProfileHook target.
func (p *Profiler) Sample(tid int, rip uint64) {
	p.samples[siteKey{tid: tid, rip: rip}]++
}

// ProfSample is one symbolized call site with its sample weight.
type ProfSample struct {
	PID    int    `json:"pid"`
	TID    int    `json:"tid"`
	RIP    uint64 `json:"rip"`
	Count  uint64 `json:"count"`
	Prog   string `json:"prog"`   // guest program (basename of the exec path)
	Region string `json:"region"` // mapped region name containing RIP, or "?"
	Offset uint64 `json:"offset"` // RIP - region start
}

// Symbol renders the sample's location as region+0xoffset.
func (s ProfSample) Symbol() string {
	if s.Region == "?" {
		return fmt.Sprintf("0x%x", s.RIP)
	}
	return fmt.Sprintf("%s+0x%x", s.Region, s.Offset)
}

// ProfileSnapshot is a deterministic, sorted summary of a profiling run.
type ProfileSnapshot struct {
	Period  uint64       `json:"period"` // virtual ticks between samples
	Samples []ProfSample `json:"samples"`
}

// Snapshot symbolizes the sample table against k's process memory maps.
// K23 assigns TID = PID*100 + thread index, so the owning process is
// recoverable from the TID alone. Threads whose process has already
// been reaped symbolize as "?".
func (p *Profiler) Snapshot(k *kernel.Kernel, period uint64) *ProfileSnapshot {
	snap := &ProfileSnapshot{Period: period}
	for key, n := range p.samples {
		pid := key.tid / 100
		s := ProfSample{PID: pid, TID: key.tid, RIP: key.rip, Count: n, Prog: "?", Region: "?"}
		if proc, ok := k.Process(pid); ok {
			if proc.Path != "" {
				s.Prog = path.Base(proc.Path)
			}
			if r, ok := proc.AS.RegionAt(key.rip); ok && r.Name != "" {
				s.Region = r.Name
				s.Offset = key.rip - r.Start
			}
		}
		snap.Samples = append(snap.Samples, s)
	}
	sort.Slice(snap.Samples, func(i, j int) bool {
		a, b := snap.Samples[i], snap.Samples[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.RIP < b.RIP
	})
	return snap
}

// Merge folds o into s, summing counts for identical (TID, RIP) sites.
// Meaningful only when the merged machines ran the same workload (the
// fleet case); distinct sites are simply concatenated.
func (s *ProfileSnapshot) Merge(o *ProfileSnapshot) {
	type k struct {
		tid int
		rip uint64
	}
	idx := make(map[k]int, len(s.Samples))
	for i, v := range s.Samples {
		idx[k{v.TID, v.RIP}] = i
	}
	for _, v := range o.Samples {
		if i, ok := idx[k{v.TID, v.RIP}]; ok {
			s.Samples[i].Count += v.Count
		} else {
			idx[k{v.TID, v.RIP}] = len(s.Samples)
			s.Samples = append(s.Samples, v)
		}
	}
	sort.Slice(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.RIP < b.RIP
	})
}

// WriteFolded emits the profile in folded-stack format
// ("prog;site count" per line), ready for flamegraph.pl or speedscope.
func (s *ProfileSnapshot) WriteFolded(w io.Writer) error {
	// Collapse across threads: flame graphs care about where cycles go,
	// not which simulated thread spent them.
	type k struct{ prog, sym string }
	agg := make(map[k]uint64)
	for _, smp := range s.Samples {
		agg[k{smp.Prog, smp.Symbol()}] += smp.Count
	}
	keys := make([]k, 0, len(agg))
	for key := range agg {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].prog != keys[j].prog {
			return keys[i].prog < keys[j].prog
		}
		return keys[i].sym < keys[j].sym
	})
	for _, key := range keys {
		if _, err := fmt.Fprintf(w, "%s;%s %d\n", key.prog, key.sym, agg[key]); err != nil {
			return err
		}
	}
	return nil
}
