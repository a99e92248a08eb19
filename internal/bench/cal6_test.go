package bench

import (
	"context"
	"fmt"
	"os"
	"testing"
)

func TestCalibrationPrintTable6(t *testing.T) {
	if os.Getenv("K23_CALIBRATE") == "" {
		t.Skip("set K23_CALIBRATE=1 to run the full Table 6 calibration")
	}
	rows, err := Table6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(FormatTable6(rows))
}
