package obsv

import (
	"fmt"
	"io"
	"sort"

	"k23/internal/kernel"
	"k23/internal/probe"
	"k23/internal/span"
)

// Span integration: the observer owns a span.Builder fed from two
// kernel streams — the phase-mark side-stream (its own hook and ordinal,
// so recordings and seq-anchored goldens stay bit-identical with spans
// on or off) and the main event stream (annotations: return values,
// mechanism attribution, chaos and clone cause edges).

// installSpanHooks attaches the builder's phase consumer. The event-side
// consumer rides the shared event hook (installEventHook).
func (o *Observer) installSpanHooks(k *kernel.Kernel) {
	k.AddPhaseHook(o.SpanBuilder.HandlePhase)
}

// SpanPhaseHist aggregates slice self-cycles into one per-(mechanism,
// phase) histogram, in the metrics layer's log2 layout so the Prometheus
// exposition matches the per-syscall cost histograms bucket-for-bucket.
// It is derived from span sets rather than a phase probe: slice
// self-time is cut at child boundaries, which no single phase mark
// carries.
type SpanPhaseHist struct {
	Mech  string `json:"mech"`
	Phase string `json:"phase"`
	Hist  Hist   `json:"latency"`
}

// SpanPhaseHists builds sorted per-(mech, phase) histograms from span
// sets. Deterministic: ordering is (mech, phase).
func SpanPhaseHists(sets []*span.Set) []SpanPhaseHist {
	type key struct{ mech, phase string }
	agg := make(map[key]*SpanPhaseHist)
	for _, s := range span.Merge(sets) {
		byID := make(map[uint64]*span.Span, len(s.Spans))
		for _, sp := range s.Spans {
			byID[sp.ID] = sp
		}
		for _, sp := range s.Spans {
			mech := sp.Mech
			for cur := sp; mech == "" && cur != nil && cur.Parent != 0; {
				cur = byID[cur.Parent]
				if cur != nil {
					mech = cur.Mech
				}
			}
			if mech == "" {
				mech = "kernel"
			}
			for _, sl := range sp.Slices {
				k := key{mech, sl.Phase}
				h := agg[k]
				if h == nil {
					h = &SpanPhaseHist{Mech: mech, Phase: sl.Phase}
					agg[k] = h
				}
				v := sl.Y1 - sl.Y0
				h.Hist.Buckets[probe.HistBucket(int64(v))]++
				h.Hist.Count++
				h.Hist.Sum += v
			}
		}
	}
	out := make([]SpanPhaseHist, 0, len(agg))
	for _, h := range agg {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mech != out[j].Mech {
			return out[i].Mech < out[j].Mech
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// WriteSpanPrometheus appends the span layer's per-mechanism phase-cost
// histograms to a Prometheus exposition (same label conventions as
// MetricsSnapshot.WritePrometheus).
func WriteSpanPrometheus(w io.Writer, sets []*span.Set, extraLabels [][2]string) {
	hists := SpanPhaseHists(sets)
	fmt.Fprintln(w, "# HELP k23_span_phase_cost_cycles Span-layer self cycles per interposition mechanism and lifecycle phase (log2 buckets).")
	fmt.Fprintln(w, "# TYPE k23_span_phase_cost_cycles histogram")
	for i := range hists {
		h := &hists[i]
		writePromHist(w, "k23_span_phase_cost_cycles", extraLabels, &h.Hist, [2]string{"mech", h.Mech}, [2]string{"phase", h.Phase})
	}
}
