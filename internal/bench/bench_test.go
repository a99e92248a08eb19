package bench

import (
	"testing"

	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/machine"
)

// BenchmarkTable6Macro (E4): the server/database macrobenchmarks, one
// Table 6 row per sub-benchmark; reports relative throughput (% of
// native) per variant.
func BenchmarkTable6Macro(b *testing.B) {
	for _, cfg := range macroConfigs() {
		b.Run(cfg.Name, func(b *testing.B) {
			var row MacroRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = slopes{}.row(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, v := range table6Variants() {
				b.ReportMetric(row.Relative[v], v+"-%native")
			}
		})
	}
}

// BenchmarkSimulator measures raw simulator speed: each op runs the
// microbenchmark natively once and reports the guest instructions it
// retired.
func BenchmarkSimulator(b *testing.B) {
	native, _ := variants.ByName("native")
	var insts uint64
	for i := 0; i < b.N; i++ {
		w := MicroWorld()
		if _, err := runToExit(w, native.New(interpose.Config{}, ""), MicroPath, []string{"micro", "2000"}, 0); err != nil {
			b.Fatal(err)
		}
		insts = machine.Insts(w.K)
	}
	b.ReportMetric(float64(insts), "insts/run")
}
