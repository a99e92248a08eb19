package difftest

import (
	"reflect"
	"testing"

	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/pitfalls"
)

// chaosSeeds mirrors chaos.Seeds (splitmix64 stream); internal/chaos
// imports this package, so the harness can't import it back.
func chaosSeeds(base uint64, n int) []uint64 {
	splitmix64 := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	out := make([]uint64, n)
	s := base
	for i := range out {
		s = splitmix64(s)
		out[i] = s
	}
	return out
}

// TestAppsThreeWayIdentical runs every internal/apps program under all
// three engine modes (jit, cache-only, cache-off) and requires
// bit-identical executions: instruction traces, syscall event streams,
// final register files, CMC counts, output, exit status and VFS state.
// ModeJIT is the reference; proving the other two against it proves
// every pair.
func TestAppsThreeWayIdentical(t *testing.T) {
	for _, w := range AppWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			ref, err := RunMode(w, ModeJIT)
			if err != nil {
				t.Fatalf("%s run: %v", ModeJIT, err)
			}
			for _, m := range []Mode{ModeCacheOnly, ModeCacheOff} {
				got, err := RunMode(w, m)
				if err != nil {
					t.Fatalf("%s run: %v", m, err)
				}
				diffSnapshots(t, m.String(), ref, got)
			}
		})
	}
}

// TestPitfallMatrixThreeWayIdentical regenerates the full Table 3
// pitfall matrix (every PoC P1a..P5 against zpoline/lazypoline/K23)
// under all three engine modes and requires identical verdicts and
// details. The PoCs build their worlds internally, so the mode is
// threaded through as a per-kernel construction option — this is what
// proves the superblock engine executes the deliberately self-modifying
// P5 family, trampoline rewrites and all, exactly like the interpreter.
func TestPitfallMatrixThreeWayIdentical(t *testing.T) {
	specs := variants.Table3Columns()
	runMatrix := func(m Mode) []pitfalls.Result {
		res, err := pitfalls.Matrix(specs, m.Options()...)
		if err != nil {
			t.Fatalf("matrix (%s): %v", m, err)
		}
		return res
	}
	ref := runMatrix(ModeJIT)
	for _, m := range []Mode{ModeCacheOnly, ModeCacheOff} {
		if got := runMatrix(m); !reflect.DeepEqual(ref, got) {
			t.Fatalf("pitfall matrix differs between %s and %s:\n%s: %v\n%s: %v",
				ModeJIT, m, ModeJIT, ref, m, got)
		}
	}
}

// TestAuditMatrixJITParity regenerates the audit-layer pitfall matrix
// (PR 5's ground-truth coverage verdicts) with the superblock engine on
// and off and requires identical audit verdicts, details, and report
// snapshots: the audit taps observe the same streams whether hot code
// runs through superblocks or the interpreter.
func TestAuditMatrixJITParity(t *testing.T) {
	specs := variants.Table3Columns()
	runAudit := func(m Mode) []pitfalls.AuditCell {
		res, err := pitfalls.AuditMatrix(specs, m.Options()...)
		if err != nil {
			t.Fatalf("audit matrix (%s): %v", m, err)
		}
		return res
	}
	ref := runAudit(ModeJIT)
	got := runAudit(ModeCacheOnly)
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("audit matrix differs between %s and %s:\n%s: %+v\n%s: %+v",
			ModeJIT, ModeCacheOnly, ModeJIT, ref, ModeCacheOnly, got)
	}
}

// TestChaosSeedsThreeWayIdentical reruns the chaos fault-injection
// harness across engine modes: for every seed, the same deterministic
// perturbation schedule (EINTR storms, short reads/writes, transient
// errno) must yield bit-identical executions whether hot code runs
// through superblocks, the decode cache, or the bare interpreter. This
// is the adversarial half of the battery — chaos lands signals and
// restarts mid-trace, exactly where superblock side-exits must line up
// with interpreter state.
func TestChaosSeedsThreeWayIdentical(t *testing.T) {
	seeds := chaosSeeds(0xC1A0, 8)
	workloads := AppWorkloads()
	if testing.Short() {
		seeds = seeds[:3]                                  // keep the -race CI lane fast
		workloads = []Workload{workloads[3], workloads[8]} // cat, redis
	}
	prof := kernel.DefaultChaosProfile()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var injected uint64
			for _, seed := range seeds {
				ref, err := RunMode(w, ModeJIT, kernel.WithChaos(seed, prof))
				if err != nil {
					t.Fatalf("seed %#x %s run: %v", seed, ModeJIT, err)
				}
				injected += ref.ChaosInjected
				for _, m := range []Mode{ModeCacheOnly, ModeCacheOff} {
					got, err := RunMode(w, m, kernel.WithChaos(seed, prof))
					if err != nil {
						t.Fatalf("seed %#x %s run: %v", seed, m, err)
					}
					diffSnapshots(t, m.String(), ref, got)
					if t.Failed() {
						t.Fatalf("seed %#x diverged under %s", seed, m)
					}
				}
			}
			// Individual seeds may legitimately miss a short syscall
			// stream, but a whole sweep injecting nothing means the
			// profile isn't arming and the test is vacuous.
			if injected == 0 {
				t.Errorf("no faults injected across %d seeds; chaos sweep is vacuous", len(seeds))
			}
		})
	}
}

// diffSnapshots compares a run under some mode against the ModeJIT
// reference snapshot field by field, so a divergence names the stream
// that broke rather than just "hashes differ".
func diffSnapshots(t *testing.T, mode string, ref, got *Snapshot) {
	t.Helper()
	if ref.Steps != got.Steps {
		t.Errorf("step counts differ: jit=%d %s=%d", ref.Steps, mode, got.Steps)
	}
	if ref.TraceHash != got.TraceHash {
		t.Errorf("instruction trace hashes differ: jit=%#x %s=%#x", ref.TraceHash, mode, got.TraceHash)
	}
	if len(ref.Events) != len(got.Events) {
		t.Errorf("event counts differ: jit=%d %s=%d", len(ref.Events), mode, len(got.Events))
	} else {
		for i := range ref.Events {
			if ref.Events[i] != got.Events[i] {
				t.Errorf("event %d differs:\njit: %s\n%s: %s", i, ref.Events[i], mode, got.Events[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(ref.Threads, got.Threads) {
		t.Errorf("final thread states differ:\njit: %+v\n%s: %+v", ref.Threads, mode, got.Threads)
	}
	if ref.Stdout != got.Stdout {
		t.Errorf("stdout differs: jit=%q %s=%q", ref.Stdout, mode, got.Stdout)
	}
	if ref.Stderr != got.Stderr {
		t.Errorf("stderr differs: jit=%q %s=%q", ref.Stderr, mode, got.Stderr)
	}
	if ref.Exit != got.Exit {
		t.Errorf("exit differs: jit=%+v %s=%+v", ref.Exit, mode, got.Exit)
	}
	if ref.VFSHash != got.VFSHash {
		t.Errorf("VFS state hashes differ: jit=%#x %s=%#x", ref.VFSHash, mode, got.VFSHash)
	}
	if ref.ChaosInjected != got.ChaosInjected {
		t.Errorf("chaos injection counts differ: jit=%d %s=%d", ref.ChaosInjected, mode, got.ChaosInjected)
	}
}
