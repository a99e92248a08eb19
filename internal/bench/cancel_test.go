package bench

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"k23/internal/cpu/difftest"
	"k23/internal/interpose/variants"
)

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCancelledBeforeWorld: every exported measurement returns
// context.Canceled for a done context, and builds no world first: it
// allocates less than a tenth of the bytes one World does.
func TestCancelledBeforeWorld(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	native, _ := variants.ByName("native")
	world := allocBytes(func() {
		if _, err := World(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	for name, run := range map[string]func() error{
		"Table2":             func() error { _, err := Table2(ctx); return err },
		"Table5":             func() error { _, err := Table5(ctx); return err },
		"Table6":             func() error { _, err := Table6(ctx); return err },
		"MicroSlope":         func() error { _, err := MicroSlope(ctx, native); return err },
		"MeasureEngineMicro": func() error { _, err := MeasureEngineMicro(ctx, 10, difftest.ModeJIT); return err },
		"MeasureEngineMacro": func() error { _, err := MeasureEngineMacro(ctx, 10, difftest.ModeJIT); return err },
		"Figure2":            func() error { _, err := Figure2(ctx); return err },
		"Figure4":            func() error { _, err := Figure4(ctx); return err },
		"ClaimStartup":       func() error { _, err := ClaimStartup(ctx); return err },
		"ClaimP4b":           func() error { _, err := ClaimP4b(ctx); return err },
		"CoverageTable":      func() error { _, err := CoverageTable(ctx); return err },
		"MeasurePhases":      func() error { _, err := MeasurePhases(ctx); return err },
		"MeasureProbes":      func() error { _, err := MeasureProbes(ctx); return err },
		"MetricsSidecar":     func() error { _, err := MetricsSidecar(ctx, []string{"native"}); return err },
		"SfipTable":          func() error { _, err := SfipTable(ctx); return err },
	} {
		var err error
		n := allocBytes(func() { err = run() })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", name, err)
		}
		if n >= world/10 {
			t.Errorf("%s: allocated %d bytes, a world takes %d", name, n, world)
		}
	}
}
