package bench

import (
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/interpose/variants"
	"k23/internal/obsv"
	"k23/internal/probe"
)

// ProbesProgram is the single probe line the `-claim probes` artifact
// runs: per-mechanism write()-latency histograms, the bpftrace one-liner
// equivalent of a dedicated metrics collector.
const ProbesProgram = `syscall:write:exit { hist(cycles) by (mech) }`

// probesRequests is the request count each variant serves. The workload
// is the Table 6 lighttpd single-worker row — every request ends in a
// write(), so the histogram shape separates the mechanisms' dispatch
// costs.
const probesRequests = 40

// probesConfig is the workload the claim drives under every variant.
var probesConfig = MacroConfig{
	Name: "lighttpd (1 worker, 0 KB)", Path: apps.LighttpdPath,
	Argv: []string{"lighttpd", "0"}, Workers: 1,
}

// ProbesVariants lists the claim's rows: native plus the Table 5
// interposers.
func ProbesVariants() []string {
	return append([]string{"native"}, Table5Variants()...)
}

// MeasureProbes runs ProbesProgram over the lighttpd workload under
// every Table 5 variant and merges the per-variant engine snapshots into
// one aggregation — the same shape a fleet of heterogeneous machines
// produces. Engines ride the side-stream hooks and charge no guest
// cycles, so every histogram value is exactly what the unprobed run
// costs (the E15 non-perturbation property), which is what makes the
// output golden-able.
func MeasureProbes() (*probe.Snapshot, error) {
	compiled, err := obsv.CompileProbes(ProbesProgram)
	if err != nil {
		return nil, err
	}
	merged := &probe.Snapshot{}
	for _, name := range ProbesVariants() {
		spec, ok := variants.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown variant %s", name)
		}
		w, err := macroWorld()
		if err != nil {
			return nil, err
		}
		l, err := macroLauncher(w, spec, probesConfig)
		if err != nil {
			return nil, err
		}
		obs := obsv.New(obsv.Options{Probes: compiled, ProbeMech: name})
		obs.Install(w.K)
		if _, err := serveRequests(w, l, probesConfig, probesRequests); err != nil {
			return nil, fmt.Errorf("bench: probes %s: %w", name, err)
		}
		merged.Merge(obs.Snapshot().Probes)
	}
	return merged, nil
}

// FormatProbes renders the merged aggregation: one row per mechanism in
// Table 5 order, with the log2 cycle histogram spelled out
// bucket-by-bucket (bucket b holds values in [2^(b-1), 2^b)).
func FormatProbes(s *probe.Snapshot) string {
	byMech := make(map[string]*probe.Row, len(s.Rows))
	for _, r := range s.Rows {
		if len(r.Key) == 1 {
			byMech[r.Key[0]] = r
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "probe: %s\n", ProbesProgram)
	fmt.Fprintf(&b, "workload: %s, %d requests per variant; prog hash %016x\n",
		probesConfig.Name, probesRequests, s.ProgHash)
	fmt.Fprintf(&b, "%-22s %-8s %-12s %s\n", "Mechanism", "writes", "mean-cycles", "log2 histogram (bucket:count)")
	for _, name := range ProbesVariants() {
		r := byMech[name]
		if r == nil {
			fmt.Fprintf(&b, "%-22s %-8d %-12s -\n", name, 0, "-")
			continue
		}
		var hist []string
		for bkt, c := range r.Buckets {
			if c != 0 {
				hist = append(hist, fmt.Sprintf("%d:%d", bkt, c))
			}
		}
		fmt.Fprintf(&b, "%-22s %-8d %-12.1f %s\n",
			name, r.Count, float64(r.Val)/float64(r.Count), strings.Join(hist, " "))
	}
	return b.String()
}
