package bench

import (
	"context"
	"testing"

	"k23/internal/cpu/difftest"
)

// TestDecodeCacheParity: cached and uncached runs retire exactly the
// same number of guest instructions (the cache is invisible to the
// guest), the uncached run records no cache activity, and the hot loops
// hit almost always.
func TestDecodeCacheParity(t *testing.T) {
	t.Run("micro", func(t *testing.T) {
		on, err := MeasureEngineMicro(context.Background(), 300, difftest.ModeCacheOnly)
		if err != nil {
			t.Fatal(err)
		}
		off, err := MeasureEngineMicro(context.Background(), 300, difftest.ModeCacheOff)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, on, off)
	})
	t.Run("redis", func(t *testing.T) {
		on, err := MeasureEngineMacro(context.Background(), 10, difftest.ModeCacheOnly)
		if err != nil {
			t.Fatal(err)
		}
		off, err := MeasureEngineMacro(context.Background(), 10, difftest.ModeCacheOff)
		if err != nil {
			t.Fatal(err)
		}
		checkParity(t, on, off)
	})
}

func checkParity(t *testing.T, on, off EngineRun) {
	t.Helper()
	if on.Steps != off.Steps {
		t.Errorf("retired instructions differ: cached=%d uncached=%d", on.Steps, off.Steps)
	}
	if off.Cache.Hits != 0 || off.Cache.Misses != 0 {
		t.Errorf("uncached run recorded cache activity: %+v", off.Cache)
	}
	if hr := on.Cache.HitRate(); hr < 0.90 {
		t.Errorf("hit rate = %.3f, want >= 0.90 (%+v over %d steps)", hr, on.Cache, on.Steps)
	}
}
