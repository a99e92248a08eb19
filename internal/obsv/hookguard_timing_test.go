//go:build timing

package obsv_test

import (
	"testing"
	"time"

	"k23/internal/obsv"
)

// TestDisabledHookGuard is the timing half of the nil-cost contract: a
// run with an all-off Observer installed is as fast as a plain run
// (single guarded branch, 20% tolerance). It reads the wall clock, so
// it runs only with the timing build tag:
//
//	go test -tags timing -count=1 -run TestDisabledHookGuard ./internal/obsv
//
// TestDisabledObserverInstallsNoHook and TestDisabledHookAllocs are its
// clock-free companions in the default test run.
func TestDisabledHookGuard(t *testing.T) {
	const iters = 2000
	timeRun := func(install bool) time.Duration {
		w := loopWorld(iters)
		if install {
			obsv.New(obsv.Options{}).Install(w.K)
		}
		start := time.Now()
		runLoop(t, w, iters)
		return time.Since(start)
	}
	// Min-of-N absorbs scheduler noise on loaded CI hosts, and
	// alternating plain and disabled runs exposes both to the same
	// stretches of host load.
	plain, disabled := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < 10; rep++ {
		plain = min(plain, timeRun(false))
		disabled = min(disabled, timeRun(true))
	}
	if plain > 0 && float64(disabled) > float64(plain)*1.20 {
		t.Errorf("disabled observer run %.2fx slower than plain (plain=%v disabled=%v)",
			float64(disabled)/float64(plain), plain, disabled)
	}
}
