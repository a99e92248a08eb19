package bench

import (
	"testing"
	"time"

	"k23/internal/interpose/variants"
)

func TestProfileOneConfig(t *testing.T) {
	cfg := macroConfigs()[0] // nginx 1w 0KB
	for _, name := range []string{"native", "sud", "k23-ultra"} {
		spec, _ := variants.ByName(name)
		start := time.Now()
		c, err := slope(spec, cfg.wl, nil, macroR1, macroR2)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f cycles/req in %v", name, c, time.Since(start))
	}
}
