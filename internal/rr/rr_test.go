package rr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"k23/internal/apps"
	"k23/internal/kernel"
)

// pwdSpec is the smallest recordable workload.
func pwdSpec() RunSpec {
	return RunSpec{
		Name: "pwd", Path: apps.PwdPath, Argv: []string{"pwd"},
		Seed: 7, CheckpointEvery: 30_000,
	}
}

// redisSpec is a server workload long enough to cross several
// checkpoint boundaries.
func redisSpec() RunSpec {
	return RunSpec{
		Name: "redis", Path: apps.RedisPath, Argv: []string{"redis-server", "1"},
		Server: true, Requests: 10,
		Seed: 11, CheckpointEvery: 30_000,
	}
}

func record(t *testing.T, spec RunSpec) *Session {
	t.Helper()
	s, err := Record(spec, Hooks{})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s
}

func TestRecordReplayEquivalent(t *testing.T) {
	for _, spec := range []RunSpec{pwdSpec(), redisSpec()} {
		t.Run(spec.Name, func(t *testing.T) {
			s := record(t, spec)
			// Servers exit with the request count mod 256; anything
			// dying by signal is a harness bug.
			if s.Rec.Final.ExitSignal != 0 {
				t.Fatalf("workload died by signal: %+v", s.Rec.Final)
			}
			r, err := Replay(s.Rec, Hooks{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if err := r.Run(); err != nil {
				t.Fatalf("replay Run: %v", err)
			}
			if i, d := r.Diverged(); d {
				t.Fatalf("replay diverged at checkpoint %d", i)
			}
			if err := s.Rec.EquivalentTo(r.Rec); err != nil {
				t.Fatalf("not equivalent: %v", err)
			}
		})
	}
}

func TestRunFromEveryCheckpoint(t *testing.T) {
	s := record(t, redisSpec())
	if s.NumCheckpoints() < 3 {
		t.Fatalf("want >= 3 checkpoints for a meaningful test, got %d", s.NumCheckpoints())
	}
	for i := 0; i < s.NumCheckpoints(); i++ {
		got, err := s.RunFromCheckpoint(i)
		if err != nil {
			t.Fatalf("RunFromCheckpoint(%d): %v", i, err)
		}
		if got != s.Rec.Final {
			t.Fatalf("checkpoint %d: final state diverged:\n got  %+v\n want %+v", i, got, s.Rec.Final)
		}
	}
}

func TestSeekSeq(t *testing.T) {
	s := record(t, redisSpec())
	if s.NumCheckpoints() < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d", s.NumCheckpoints())
	}
	// Pick a target just past the second-to-last checkpoint: the seek
	// must restore that checkpoint, not replay from the beginning.
	wantFrom := s.NumCheckpoints() - 2
	target := s.Rec.Checkpoints[wantFrom].Seq + 1
	sk, err := s.SeekSeq(target)
	if err != nil {
		t.Fatalf("SeekSeq: %v", err)
	}
	if sk.Seq < target+1 {
		t.Fatalf("seek stopped at seq %d, target %d not yet emitted", sk.Seq, target)
	}
	if sk.From != wantFrom {
		t.Fatalf("seek restored checkpoint %d, want %d (nearest below target)", sk.From, wantFrom)
	}
	if sk.ReExecuted >= s.Rec.Final.Steps {
		t.Fatalf("seek re-executed %d of %d steps — no better than a full replay", sk.ReExecuted, s.Rec.Final.Steps)
	}
	// The stop must land just past the target: the event with ordinal
	// `target` exists in the recording and the world's clock must be at
	// (or barely past) that event's recorded clock.
	var want *EventRec
	for i := range s.Rec.Events {
		if s.Rec.Events[i].Seq == target {
			want = &s.Rec.Events[i]
		}
	}
	if want == nil {
		t.Fatalf("target seq %d not in recording", target)
	}
	if sk.VClock < want.Clock {
		t.Fatalf("seek VClock %d is before the target event's clock %d", sk.VClock, want.Clock)
	}
}

// TestSeekBeforeFirstCheckpoint covers the launch-time fallback: a
// target emitted during Launch (e.g. a startup-category audit escape)
// has no checkpoint before it, so the seek replays the launch alone in
// a fresh world and reports From = -1 — still far cheaper than a full
// re-execution.
func TestSeekBeforeFirstCheckpoint(t *testing.T) {
	s := record(t, redisSpec())
	first := s.Rec.Checkpoints[0].Seq
	if first == 0 {
		t.Skip("first checkpoint at seq 0; nothing precedes it")
	}
	sk, err := s.SeekSeq(first - 1)
	if err != nil {
		t.Fatalf("SeekSeq(%d): %v", first-1, err)
	}
	if sk.From != -1 {
		t.Fatalf("seek From = %d, want -1 (replay from tick 0)", sk.From)
	}
	if sk.Seq < first {
		t.Fatalf("seek stopped at seq %d before target %d", sk.Seq, first-1)
	}
	if sk.ReExecuted >= s.Rec.Final.Steps {
		t.Fatalf("launch-time seek re-executed %d of %d steps — no better than a full replay",
			sk.ReExecuted, s.Rec.Final.Steps)
	}
	// The launch replay must not have disturbed the primary session: a
	// later checkpoint seek still works and matches the recording.
	got, err := s.RunFromCheckpoint(0)
	if err != nil {
		t.Fatalf("RunFromCheckpoint(0) after launch seek: %v", err)
	}
	if got != s.Rec.Final {
		t.Fatalf("session state damaged by launch-time seek:\n got  %+v\n want %+v", got, s.Rec.Final)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := record(t, redisSpec())
	var buf bytes.Buffer
	if err := s.Rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if !reflect.DeepEqual(s.Rec, got) {
		t.Fatalf("recording did not round-trip through JSONL")
	}
}

func TestJSONLRejectsCorruption(t *testing.T) {
	s := record(t, pwdSpec())
	var buf bytes.Buffer
	if err := s.Rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	// Truncation loses the final line.
	lines := bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n"))
	trunc := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	if _, err := ReadJSONL(bytes.NewReader(trunc)); err == nil {
		t.Fatalf("truncated recording accepted")
	}
	// A version bump is rejected.
	bumped := bytes.Replace(buf.Bytes(), []byte(`"v":3`), []byte(`"v":99`), 1)
	if _, err := ReadJSONL(bytes.NewReader(bumped)); err == nil {
		t.Fatalf("future-version recording accepted")
	}
	// So is a v2 recording: its trace hashes used another fold.
	v2 := bytes.Replace(buf.Bytes(), []byte(`"v":3`), []byte(`"v":2`), 1)
	_, err := ReadJSONL(bytes.NewReader(v2))
	if err == nil || !strings.Contains(err.Error(), "artifact is rr v2, want rr v3") {
		t.Fatalf("v2 recording: err = %v, want the version error", err)
	}
}

// TestJSONLRejectsEditedRecords: editing one digit in the first line of
// each record type — the spec (argv, vclock0), a chaos decision, an
// event, a checkpoint (pages_copied) or the final record — must fail
// ReadJSONL, not only edits to event lines.
func TestJSONLRejectsEditedRecords(t *testing.T) {
	spec := redisSpec()
	spec.Chaos = &kernel.ChaosProfile{BlockEINTR: 48, ShortRead: 96, ShortWrite: 96, Transient: 48}
	spec.ChaosSeed = 5
	s := record(t, spec)
	var buf bytes.Buffer
	if err := s.Rec.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if _, err := ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("untampered recording rejected: %v", err)
	}
	for _, tag := range []string{"spec", "chaos", "event", "ckpt", "final"} {
		i := bytes.Index(buf.Bytes(), []byte(`{"t":"`+tag+`",`))
		if i < 0 {
			t.Fatalf("recording has no %s record", tag)
		}
		edited := bytes.Clone(buf.Bytes())
		j := i + bytes.IndexAny(edited[i:], "0123456789")
		edited[j] = '0' + (edited[j]-'0'+1)%10
		if _, err := ReadJSONL(bytes.NewReader(edited)); err == nil {
			t.Errorf("recording with an edited %s line accepted", tag)
		}
	}
}

// TestValidateRejectsEditedEvent guards the tamper check: flipping one
// bit in one recorded event's return value must fail validation (the
// stream no longer re-hashes to the recorded final event hash), even
// though every count and checkpoint line is untouched.
func TestValidateRejectsEditedEvent(t *testing.T) {
	s := record(t, pwdSpec())
	tampered := *s.Rec
	tampered.Events = append([]EventRec(nil), s.Rec.Events...)
	tampered.Events[len(tampered.Events)/2].Ret ^= 1
	if err := tampered.Validate(); err == nil {
		t.Fatalf("recording with an edited event line validated clean")
	}
	if err := s.Rec.Validate(); err != nil {
		t.Fatalf("untampered recording failed validation: %v", err)
	}
}

// TestRecordedFrontierSufficient is the frontier under-capture guard:
// replay a recording whose SEED has been destroyed. If the replay
// engine (or anything below it) re-derived state from the seed instead
// of the recorded frontier values, this run would diverge.
func TestRecordedFrontierSufficient(t *testing.T) {
	spec := redisSpec()
	spec.Chaos = &kernel.ChaosProfile{BlockEINTR: 48, ShortRead: 96, ShortWrite: 96, Transient: 48}
	spec.ChaosSeed = 5
	s := record(t, spec)
	if s.Rec.Final.ChaosInjected == 0 {
		t.Fatalf("chaos profile armed but nothing injected; frontier test is vacuous")
	}

	// Destroy the seed in the recording: replay must not notice.
	mangled := *s.Rec
	mangled.Spec.Seed = 0xdeadbeef
	mangled.Spec.ChaosSeed = 0

	r, err := Replay(&mangled, Hooks{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("replay Run: %v", err)
	}
	if i, d := r.Diverged(); d {
		t.Fatalf("seed-free replay diverged at checkpoint %d: the frontier under-captures", i)
	}
	if s.Rec.Final != r.Rec.Final {
		t.Fatalf("seed-free replay final state diverged:\n got  %+v\n want %+v", r.Rec.Final, s.Rec.Final)
	}
}
