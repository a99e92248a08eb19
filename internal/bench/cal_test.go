package bench

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// Calibration printers: run with K23_CALIBRATE=1 (see EXPERIMENTS.md);
// the regular test suite exercises the same code through smaller checks.
func TestCalibrationPrintTable5(t *testing.T) {
	if os.Getenv("K23_CALIBRATE") == "" {
		t.Skip("set K23_CALIBRATE=1 to run the full Table 5 calibration")
	}
	rows, err := Table5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(FormatTable5(rows))
}
