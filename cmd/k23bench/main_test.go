package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// output against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func pinnedOracle(t *testing.T) map[string]outcome {
	t.Helper()
	pinned := map[string]outcome{}
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	return pinned
}

// smokeHarness runs one setup pass and one timed round.
func smokeHarness(t *testing.T) *harness {
	return &harness{seed: 7, passes: 1, pinned: pinnedOracle(t), log: io.Discard, traceDir: t.TempDir()}
}

// metricLines parses `<workload> <metric> <value> <unit>` lines into
// metric -> unit, failing on any other line but the final JSON summary.
func metricLines(t *testing.T, out string, workload string) (map[string]string, summary) {
	t.Helper()
	units := map[string]string{}
	var sum summary
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatalf("summary line %q: %v", line, err)
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			t.Fatalf("malformed metric line %q", line)
		}
		if _, err := strconv.ParseFloat(f[2], 64); err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		units[f[1]] = f[3]
	}
	return units, sum
}

func checkNamed(t *testing.T, units map[string]string, want []struct{ Name, Unit string }) {
	t.Helper()
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		if got, ok := units[m.Name]; !ok {
			t.Errorf("metric %s not printed", m.Name)
		} else if got != m.Unit {
			t.Errorf("metric %s printed with unit %s, BENCHMARK.json says %s", m.Name, got, m.Unit)
		}
	}
	for name := range units {
		if !named[name] {
			t.Errorf("metric %s is printed but not named in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload for one round and checks that the output
// carries exactly the metrics BENCHMARK.json names, with their units, and
// that no job failed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads()))
	}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			b := smokeHarness(t)
			jsonPath := filepath.Join(t.TempDir(), "out.json")
			var out bytes.Buffer
			if err := b.report([]*workload{w}, &out, jsonPath); err != nil {
				t.Fatal(err)
			}
			units, sum := metricLines(t, out.String(), w.name)
			checkNamed(t, units, bf.EndToEnd)
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("summary %+v: want correct, 0 failed", sum)
			}
			data, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			var rs []result
			if err := json.Unmarshal(data, &rs); err != nil {
				t.Fatalf("-json output: %v", err)
			}
			if len(rs) != 1 || rs[0].Failed != 0 {
				t.Errorf("-json output %+v", rs)
			}
		})
	}
}

// TestTraced checks that a traced run prints every per-layer metric and
// writes its spans and CPU profile.
func TestTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	b := smokeHarness(t)
	b.trace = true
	var out bytes.Buffer
	if err := b.report([]*workload{workloads()[0]}, &out, ""); err != nil {
		t.Fatal(err)
	}
	units, sum := metricLines(t, out.String(), "micro")
	checkNamed(t, units, bf.PerLayer)
	if sum.Failed != 0 {
		t.Errorf("summary %+v: want 0 failed", sum)
	}
	for _, name := range []string{"spans.jsonl", "micro.cpu.pprof"} {
		if fi, err := os.Stat(filepath.Join(b.traceDir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if sum.Metrics["kernel.syscall_ns.native"].Value <= 0 || sum.Metrics["self_ms.kernel.run"].Value <= 0 {
		t.Errorf("per-layer metrics not measured: %+v", sum.Metrics)
	}
}

// TestCorruptedOracleFails proves the checks bite: a wrong pinned value
// turns into failed jobs.
func TestCorruptedOracleFails(t *testing.T) {
	b := smokeHarness(t)
	want := b.pinned["micro/native"]
	want.Steps = append([]uint64(nil), want.Steps...)
	want.Steps[0]++
	b.pinned["micro/native"] = want
	r := b.runWorkload(workloads()[0])
	if r.Failed == 0 || r.FailedByLayer["check"] == 0 {
		t.Fatalf("corrupted oracle: %d of %d jobs failed (%v), want failures in check", r.Failed, r.Attempted, r.FailedByLayer)
	}
}

// TestPinnedOracleMatchesPaperTables derives the Table 5 cycles/iter
// column from the pinned micro totals and the Table 3 verdicts from the
// pinned matrix cells, and compares both with benchtab's goldens.
func TestPinnedOracleMatchesPaperTables(t *testing.T) {
	pinned := pinnedOracle(t)
	golden, err := os.ReadFile("../benchtab/testdata/table5.golden")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(golden)), "\n")[1:]
	if len(rows) != len(microMechs()) {
		t.Fatalf("table5.golden has %d rows, micro runs %d mechanisms", len(rows), len(microMechs()))
	}
	for _, row := range rows {
		f := strings.Fields(row)
		o, ok := pinned["micro/"+f[0]]
		if !ok || len(o.Cycles) != 2 {
			t.Errorf("no pinned micro totals for %s", f[0])
			continue
		}
		slope := float64(o.Cycles[1]-o.Cycles[0]) / (microIters2 - microIters1)
		if got := fmt.Sprintf("%.1f", slope); got != f[len(f)-1] {
			t.Errorf("%s: pinned totals give %s cycles/iter, table5.golden says %s", f[0], got, f[len(f)-1])
		}
	}

	golden, err = os.ReadFile("../benchtab/testdata/table3.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(golden)), "\n")
	cols := strings.Fields(lines[0])
	for _, row := range lines[1:] {
		f := strings.Fields(row)
		for i, col := range cols {
			key := "matrix/" + f[0] + "/" + col
			if got := pinned[key].Verdict; got != f[i+1] {
				t.Errorf("%s: pinned verdict %q, table3.golden says %q", key, got, f[i+1])
			}
		}
	}
}
