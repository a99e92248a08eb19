package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"k23/internal/bench"
	"k23/internal/chaos"
	"k23/internal/cpu/difftest"
	"k23/internal/fleet"
	"k23/internal/interpose/variants"
	"k23/internal/obsv"
	"k23/internal/pitfalls"
)

var update = flag.Bool("update", false, "rewrite testdata golden files from current output")

// checkGolden compares got against testdata/<name> row-for-row. The
// tables are fully deterministic (every number is simulated cycles, not
// host time), so any drift is a real behavior change: either a perf PR
// silently moved the paper's numbers, or the golden needs a deliberate
// refresh via `go test ./cmd/benchtab -update`.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run `go test ./cmd/benchtab -update` to create): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	n := len(gotLines)
	if len(wantLines) > n {
		n = len(wantLines)
	}
	for i := 0; i < n; i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("%s row %d drifted:\n got:  %q\n want: %q", name, i+1, g, w)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from golden in whitespace only", name)
	}
}

// TestMain lets the test binary stand in for the benchtab command: with
// K23_AS_MAIN set it runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("K23_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestClaimsRun runs `benchtab -claim decodecache`, `jit`, `rr`,
// `phases` and `probes` as the command: each must exit 0 and print every
// table header. TestGoldenJIT, TestGoldenRR, TestGoldenPhases and
// TestGoldenProbes pin the tables themselves.
func TestClaimsRun(t *testing.T) {
	for _, row := range []struct {
		claim   string
		headers []string
	}{
		{"decodecache", []string{
			"==== Claim — decoded-instruction cache counters ====",
			"Workload           steps        hit-rate  hits/misses/inval\n",
		}},
		{"jit", []string{
			"==== Claim — trace-JIT superblock engagement (E18) ====",
			"Workload           steps        blocks   entries   block-insts  coverage  bails  selfwr  evict\n",
		}},
		{"rr", []string{
			"==== Claim — checkpoint interval vs replay latency and space (E19) ====",
			"interval   ckpts  pages-copied pages-shared total-steps  mid-seek   tail-seek   tail-saving\n",
		}},
		{"phases", []string{
			"==== Claim — per-mechanism lifecycle phase cost decomposition (E20) ====",
			"Interposer                  trap    signal   handler      hook   emulate   forward    kernel     other     total\n",
		}},
		{"probes", []string{
			"==== Claim — probe DSL: per-mechanism write latency from one probe line (E22) ====",
			"Mechanism              writes   mean-cycles  log2 histogram (bucket:count)\n",
		}},
	} {
		t.Run(row.claim, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-claim", row.claim)
			cmd.Env = append(os.Environ(), "K23_AS_MAIN=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("benchtab -claim %s: %v\nstderr:\n%s", row.claim, err, stderr.String())
			}
			for _, h := range row.headers {
				if !strings.Contains(string(out), h) {
					t.Errorf("benchtab -claim %s output lacks %q:\n%s", row.claim, h, out)
				}
			}
		})
	}
}

// TestCommandPipelines runs the command's artifact-writing paths
// in-process, each row checking its output the way a user would.
func TestCommandPipelines(t *testing.T) {
	for _, row := range []struct {
		name  string
		check func(t *testing.T, dir string)
	}{
		// `benchtab -fleet 4 -fleet-trace F` writes the same trace at one
		// worker and at two, and it passes the trace schema check: every
		// record parses, carries its kind's fields and keeps seq/clock
		// monotonic per machine section.
		{"fleet-trace-schema", func(t *testing.T, dir string) {
			var traces [2][]byte
			for i, workers := range []int{1, 2} {
				rep, err := fleet.Run(context.Background(), fleet.StandardFleet(4),
					fleet.Options{Workers: workers, Obs: obsv.Options{Trace: true, Metrics: true}})
				if err == nil {
					err = rep.FirstErr()
				}
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
				if err := writeFleetTrace(rep, path); err != nil {
					t.Fatal(err)
				}
				if traces[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(traces[0], traces[1]) {
				t.Error("fleet trace differs between 1 and 2 workers")
			}
			if n, err := obsv.ValidateJSONL(bytes.NewReader(traces[1])); err != nil || n == 0 {
				t.Errorf("fleet trace fails the schema check: %d records, %v", n, err)
			}
		}},
		// A sweep report with a violation names the seed's -chaos-repro
		// command and fails the run.
		{"sweep-repro-line", func(t *testing.T, dir string) {
			var out bytes.Buffer
			rep := &chaos.Report{Seeds: 1, Runs: 3, Violations: []chaos.Violation{{Seed: 0xbeef, Area: "apps", What: "exit status differs"}}}
			if err := reportSweep(&out, rep); err == nil {
				t.Error("a report with a violation returned no error")
			}
			for _, want := range []string{"violations:     1\n", "VIOLATION seed 0xbeef [apps]", "repro: go run ./cmd/benchtab -chaos-repro 0xbeef\n"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) { row.check(t, t.TempDir()) })
	}
}

func TestGoldenTable2(t *testing.T) {
	rows, err := bench.Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.golden", bench.FormatTable2(rows))
}

func TestGoldenTable3(t *testing.T) {
	results, err := pitfalls.Matrix(context.Background(), variants.Table3Columns())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.golden", pitfalls.FormatMatrix(results))
}

func TestGoldenTable5(t *testing.T) {
	rows, err := bench.Table5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table5.golden", bench.FormatTable5(rows))
}

func TestGoldenTable6(t *testing.T) {
	if testing.Short() {
		t.Skip("Table 6 regeneration takes about 6 s; skipped in -short")
	}
	if raceEnabled {
		t.Skip("Table 6 regeneration takes 80–90 s under -race on a 2-CPU host, and internal/bench " +
			"starts no goroutine, so the race detector has nothing to check there; covered by the non-race run")
	}
	rows, err := bench.Table6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table6.golden", bench.FormatTable6(rows))
}

// TestGoldenJIT pins `benchtab -claim jit` (E18) and `-claim
// decodecache` (E13) on the micro and redis-like macro workloads: the
// superblock-engine engagement counters (blocks compiled, entries,
// instructions retired in blocks, coverage, bails, self-write exits,
// evictions) of jit-mode runs, and the decode-cache hits, misses and
// invalidations of cache-only runs. The counters depend only on the
// workload, the formation heuristics and the cache, so drift means an
// engine's behavior actually changed.
func TestGoldenJIT(t *testing.T) {
	runs, err := engineRuns(context.Background(), difftest.ModeJIT)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "jit.golden", bench.FormatJITEngagement(runs))
	if runs, err = engineRuns(context.Background(), difftest.ModeCacheOnly); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "decodecache.golden", bench.FormatDecodeCache(runs))
}

// TestGoldenRR pins `benchtab -claim rr` (E19): the checkpoint-interval
// sweep over the redis-like workload — checkpoint counts, dirty-page
// delta space, and the instructions a mid-run seek re-executes. Every
// number is simulated, so drift means the recorder's checkpoint
// placement or the seek engine actually changed.
func TestGoldenRR(t *testing.T) {
	rows, err := bench.MeasureRR([]uint64{10_000, 30_000, 100_000, 250_000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rr.golden", bench.FormatRR(rows))
}

// TestGoldenPhases pins `benchtab -claim phases` (E20): the span-layer
// decomposition of every Table 5 row into lifecycle-phase self-cycles
// plus the dispatch residual. The columns are two-point slopes over the
// same micro workload Table 5 measures, so each row must sum (phases +
// other) to that table's cycles/iter; drift means either an interposer's
// cost moved or the span builder's attribution changed.
func TestGoldenPhases(t *testing.T) {
	rows, err := bench.MeasurePhases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var attributed float64
		for _, v := range r.Phases {
			attributed += v
		}
		if diff := r.Total - (attributed + r.Other); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: phases+other = %.3f, total = %.3f", r.Name, attributed+r.Other, r.Total)
		}
	}
	checkGolden(t, "phases.golden", bench.FormatPhases(rows))
}

// TestGoldenSfip pins `benchtab -claim sfip` (E21): the two-pass
// pitfall-trip matrix (training escapes, learned policy sizes, and
// enforcement trips/denials per Table 3 cell), the nine-application
// self-training false-positive table, and the micro hot-path cost in
// virtual cycles. Everything is simulated and two deterministic passes
// of the same PoCs, so drift means the learner, the enforcer, or an
// interposer's escape behavior actually changed.
func TestGoldenSfip(t *testing.T) {
	got, err := bench.SfipTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "trips under enforcement: PASS") {
		t.Errorf("sfip trip criterion failed:\n%s", got)
	}
	if !strings.Contains(got, "false-positive total: 0") {
		t.Errorf("sfip false-positive criterion failed:\n%s", got)
	}
	checkGolden(t, "sfip.golden", got)
}

// TestGoldenProbes pins `benchtab -claim probes` (E22): the
// per-mechanism write()-latency histograms that one probe line produces
// over the lighttpd workload under every Table 5 variant. Engines ride
// the side-streams and charge nothing, so every bucket is in simulated
// cycles; drift means a mechanism's write path cost actually moved or
// the probe engine's aggregation changed.
func TestGoldenProbes(t *testing.T) {
	snap, err := bench.MeasureProbes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "probes.golden", bench.FormatProbes(snap))
}

// TestGoldenCoverage pins the audited coverage matrices (E17): the
// full per-syscall x per-mechanism counts, escapes by taxonomy
// category, and TTFC for every coverage app under every coverage
// variant. The join is deterministic, so any drift means interposition
// behavior actually changed.
func TestGoldenCoverage(t *testing.T) {
	got, err := bench.CoverageTable(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "coverage.golden", got)
}

// TestGoldenFigures pins `benchtab -figure 1`, `-figure 2` and `-figure
// 4`: the misidentification anatomy, the offline-phase trace of `ls`
// and its online-phase trace under K23. Drift means a disassembler, the
// offline logger or K23's startup, rewriting or fallback counts changed.
func TestGoldenFigures(t *testing.T) {
	checkGolden(t, "figure1.golden", bench.Figure1())
	for name, fig := range map[string]func(context.Context) (string, error){
		"figure2.golden": bench.Figure2,
		"figure4.golden": bench.Figure4,
	} {
		got, err := fig(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, got)
	}
}

// TestGoldenStartupP4b pins `benchtab -claim startup` (§6.1: the system
// calls ls issues before an LD_PRELOAD library loads) and `-claim p4b`
// (zpoline's bitmap against K23's robin set for `ls`).
func TestGoldenStartupP4b(t *testing.T) {
	for name, claim := range map[string]func(context.Context) (string, error){
		"startup.golden": bench.ClaimStartup,
		"p4b.golden":     bench.ClaimP4b,
	} {
		got, err := claim(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, got)
	}
}

// TestGoldenSidecar pins `benchtab -metrics-sidecar`: one metrics-observed
// micro run per Table 5 row, its syscall volume, errors, mean cost,
// decode-cache hit rate and per-mechanism counts.
func TestGoldenSidecar(t *testing.T) {
	rows, err := bench.MetricsSidecar(context.Background(), append([]string{"native"}, bench.Table5Variants()...))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sidecar.golden", bench.FormatMetricsSidecar(rows))
}
