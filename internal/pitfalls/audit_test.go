package pitfalls

import (
	"reflect"
	"sync"
	"testing"

	"k23/internal/interpose/variants"
	"k23/internal/obsv"
)

// TestAuditMatrixParity is the differential-observability acceptance
// test: for every Table 3 cell, the shadow-map auditor must rediscover
// the PoC's vulnerable/protected verdict from the ground-truth vs
// attribution streams alone — the PoC's internal hook counters and
// assertions never feed the auditor.
func TestAuditMatrixParity(t *testing.T) {
	cells, err := AuditMatrix(variants.Table3Columns())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(All())*3 {
		t.Fatalf("got %d cells, want %d", len(cells), len(All())*3)
	}
	for i := range cells {
		c := &cells[i]
		if len(c.Snapshots) == 0 {
			t.Errorf("%s/%s: no audit snapshots collected", c.Pitfall, c.Interposer)
			continue
		}
		var oracles uint64
		for _, s := range c.Snapshots {
			oracles += s.Totals.Oracles
		}
		if oracles == 0 {
			t.Errorf("%s/%s: auditor saw no executed syscalls", c.Pitfall, c.Interposer)
		}
		if !c.Agree() {
			t.Errorf("%s/%s: PoC says handled=%v (%s) but audit says handled=%v (%s)",
				c.Pitfall, c.Interposer, c.Handled, c.Detail, c.AuditHandled, c.AuditDetail)
		}
	}
}

// TestAuditVerdictMatchesTable3 pins the audit-derived verdicts to the
// paper's published Table 3, independently of the PoCs' own assertions.
func TestAuditVerdictMatchesTable3(t *testing.T) {
	cells, err := AuditMatrix(variants.Table3Columns())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		c := &cells[i]
		want, ok := expectTable3[c.Pitfall][c.Interposer]
		if !ok {
			continue
		}
		if c.AuditHandled != want {
			t.Errorf("%s/%s: audit verdict handled=%v (%s), Table 3 says %v",
				c.Pitfall, c.Interposer, c.AuditHandled, c.AuditDetail, want)
		}
	}
}

// TestObservedMatrixConcurrent: ObservedMatrix keeps no package-level
// state — each cell's observers travel with its own harness — so two
// matrices run on parallel goroutines return exactly the cells of a
// serial run. Under -race this also proves the runs share nothing.
func TestObservedMatrixConcurrent(t *testing.T) {
	specs := []variants.Spec{specByName(t, "native"), specByName(t, "k23-ultra+")}
	run := func() ([]ObservedCell, error) {
		return ObservedMatrix(specs, func(PoC, variants.Spec, int) obsv.Options { return obsv.Options{Audit: true} })
	}
	serial, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var parallel [2][]ObservedCell
	var errs [2]error
	var wg sync.WaitGroup
	for i := range parallel {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parallel[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	for i, cells := range parallel {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(cells) != len(serial) {
			t.Fatalf("run %d: %d cells, serial %d", i, len(cells), len(serial))
		}
		for j := range cells {
			got, want := &cells[j], &serial[j]
			if got.Result != want.Result || len(got.Observers) != len(want.Observers) {
				t.Errorf("run %d cell %s/%s: %+v with %d observers, serial %+v with %d",
					i, want.Pitfall, want.Interposer, got.Result, len(got.Observers), want.Result, len(want.Observers))
				continue
			}
			for k := range got.Observers {
				if !reflect.DeepEqual(got.Observers[k].Snapshot().Audit, want.Observers[k].Snapshot().Audit) {
					t.Errorf("run %d cell %s/%s world %d: audit snapshot differs from the serial run",
						i, want.Pitfall, want.Interposer, k)
				}
			}
		}
	}
}
