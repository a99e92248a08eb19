package pitfalls

import (
	"fmt"
	"testing"

	"k23/internal/cpu"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
)

// p5Pins holds, per Table 3 column, the retired-instruction trace hash
// and the stale-I-cache (CMC) violation count of every kernel the P5 PoC
// builds, in creation order. P5 is an interleaving property: the delay
// scan only finds torn and stale execution because the scheduler runs
// the writer and the worker at quantum 1 in one exact order, so any
// change to which thread runs when moves these hashes.
var p5Pins = map[string][]p5Kernel{
	// The permission probe's world, then the delay-scan world.
	"zpoline-ultra": {{0x8f576d24a3a442e3, 0}, {0xf5b52099b0376bd8, 0}},
	// lazypoline loses the JIT page permission, so the scan never runs.
	"lazypoline": {{0x79d4998c6432af98, 0}},
	"k23-ultra+": {{0x2c5dd009917da888, 0}, {0x8c0e77e49ddb6242, 0}},
}

// p5Kernel is one kernel's pinned outcome.
type p5Kernel struct {
	trace cpu.TraceHash
	cmc   uint64
}

func (p p5Kernel) String() string { return fmt.Sprintf("{%#x, %d}", uint64(p.trace), p.cmc) }

// TestP5TraceHash runs the P5 PoC under every Table 3 column with a
// kernel option that gives each kernel its own trace hash, and compares
// every kernel's hash and CMC-violation count against the pins.
func TestP5TraceHash(t *testing.T) {
	for _, spec := range variants.Table3Columns() {
		t.Run(spec.Name, func(t *testing.T) {
			var kernels []*kernel.Kernel
			var traces []*cpu.TraceHash
			ownTrace := func(k *kernel.Kernel) {
				h := cpu.NewTraceHash()
				k.Trace = &h
				kernels = append(kernels, k)
				traces = append(traces, &h)
			}
			runPoC(t, "P5", spec.Name, ownTrace)
			got := make([]p5Kernel, len(kernels))
			for i, k := range kernels {
				got[i].trace = *traces[i]
				for _, p := range k.Processes() {
					for _, th := range p.Threads {
						got[i].cmc += th.Core.CMCViolations
					}
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(p5Pins[spec.Name]) {
				t.Errorf("P5 under %s:\n got %v\nwant %v", spec.Name, got, p5Pins[spec.Name])
			}
		})
	}
}
