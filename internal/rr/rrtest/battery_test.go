package rrtest

import (
	"testing"

	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/rr"
)

// TestAppsReplayEquivalence runs the battery over all 9 apps natively.
// Subtests run in parallel: each session owns its world, so the battery
// under -race also proves the engine shares no mutable state.
func TestAppsReplayEquivalence(t *testing.T) {
	for _, spec := range AppSpecs() {
		spec := spec
		t.Run(SubtestName(spec), func(t *testing.T) {
			t.Parallel()
			Battery(t, spec)
		})
	}
}

// TestPitfallMatrixReplayEquivalence crosses the Table 3 systems
// (zpoline-ultra, lazypoline, k23-ultra+) with a file workload and a
// server workload: checkpoints now snapshot live interposer state
// (rewrite site sets, SUD selectors, K23 handoff counters), so this is
// the HostState round-trip proof under real mechanisms.
func TestPitfallMatrixReplayEquivalence(t *testing.T) {
	apps := AppSpecs()
	var cat, redis rr.RunSpec
	for _, s := range apps {
		switch s.Name {
		case "cat":
			cat = s
		case "redis":
			redis = s
		}
	}
	for _, col := range variants.Table3Columns() {
		for _, base := range []rr.RunSpec{cat, redis} {
			spec := base
			spec.Mechanism = col.Name
			t.Run(SubtestName(spec), func(t *testing.T) {
				t.Parallel()
				Battery(t, spec)
			})
		}
	}
}

// TestChaosSeedsReplayEquivalence records the redis workload under the
// default chaos profile with 8 distinct seeds and proves every
// perturbation schedule replays bit-identically from the recorded
// decision script (not the seed).
func TestChaosSeedsReplayEquivalence(t *testing.T) {
	apps := AppSpecs()
	var redis rr.RunSpec
	for _, s := range apps {
		if s.Name == "redis" {
			redis = s
		}
	}
	prof := kernel.DefaultChaosProfile()
	injected := false
	done := make(chan bool, 8)
	for seed := uint64(1); seed <= 8; seed++ {
		spec := redis
		spec.Name = "redis-chaos"
		spec.Chaos = &prof
		spec.ChaosSeed = seed * 0x9e3779b97f4a7c15
		t.Run(SubtestName(spec), func(t *testing.T) {
			t.Parallel()
			s, err := rr.Record(spec, rr.Hooks{})
			if err != nil {
				t.Fatalf("Record: %v", err)
			}
			if err := s.Run(); err != nil {
				t.Fatalf("record run: %v", err)
			}
			done <- s.Rec.Final.ChaosInjected > 0
			r, err := rr.Replay(s.Rec, rr.Hooks{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if err := r.Run(); err != nil {
				t.Fatalf("replay run: %v", err)
			}
			if err := s.Rec.EquivalentTo(r.Rec); err != nil {
				t.Fatalf("chaos replay not equivalent: %v", err)
			}
			for i := 0; i < s.NumCheckpoints(); i++ {
				got, err := s.RunFromCheckpoint(i)
				if err != nil {
					t.Fatalf("RunFromCheckpoint(%d): %v", i, err)
				}
				if got != s.Rec.Final {
					t.Fatalf("chaos replay from checkpoint %d diverged", i)
				}
			}
		})
	}
	t.Cleanup(func() {
		close(done)
		for d := range done {
			injected = injected || d
		}
		if !injected {
			t.Errorf("no chaos seed injected anything; the chaos leg of the battery is vacuous")
		}
	})
}

// TestSeekSequences: seeks compose. A forward SeekSeq after an earlier
// one lands exactly where a fresh session's single seek does, and after
// any seek the checkpoints still re-execute to the recorded final state
// — the restore always starts from the primary run's event log.
func TestSeekSequences(t *testing.T) {
	for _, spec := range AppSpecs() {
		switch spec.Name {
		case "sqlite", "nginx", "lighttpd", "redis":
		default:
			continue
		}
		t.Run(SubtestName(spec), func(t *testing.T) {
			t.Parallel()
			record := func() *rr.Session {
				s, err := rr.Record(spec, rr.Hooks{})
				if err != nil {
					t.Fatalf("Record: %v", err)
				}
				if err := s.Run(); err != nil {
					t.Fatalf("record run: %v", err)
				}
				return s
			}
			s, fresh := record(), record()
			ev := s.Rec.Events
			mid := max(ev[len(ev)/2].Seq, s.Rec.Checkpoints[0].Seq)
			tail := ev[len(ev)-1].Seq
			seek := func(s *rr.Session, target uint64) *rr.Seek {
				sk, err := s.SeekSeq(target)
				if err != nil {
					t.Fatalf("SeekSeq(%d): %v", target, err)
				}
				return sk
			}
			seek(s, mid)
			if got, want := seek(s, tail), seek(fresh, tail); *got != *want {
				t.Errorf("SeekSeq(%d) after SeekSeq(%d) = %+v, fresh session %+v", tail, mid, *got, *want)
			}
			seek(s, mid)
			n := s.NumCheckpoints()
			for _, i := range []int{0, n / 2, n - 1} {
				got, err := s.RunFromCheckpoint(i)
				if err != nil {
					t.Fatalf("RunFromCheckpoint(%d) after seeks: %v", i, err)
				}
				if got != s.Rec.Final {
					t.Fatalf("RunFromCheckpoint(%d) after seeks diverged:\n got  %+v\n want %+v", i, got, s.Rec.Final)
				}
			}
		})
	}
}
