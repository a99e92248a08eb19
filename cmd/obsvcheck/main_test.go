package main

import (
	"bytes"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"k23/internal/apps"
	"k23/internal/audit"
	"k23/internal/canon"
	"k23/internal/interpose"
	"k23/internal/obsv"
	"k23/internal/probe"
	"k23/internal/rr"
	"k23/internal/sfip"
	"k23/internal/span"
)

var (
	artsOnce sync.Once
	arts     map[string][]byte
	artsErr  error
)

// observedPwd records pwd under mech with every observer in opts and
// returns the session and the observer's snapshot.
func observedPwd(mech string, opts obsv.Options) (*rr.Session, *obsv.Snapshot, error) {
	spec := rr.RunSpec{Name: "pwd", Mechanism: mech, Path: apps.PwdPath, Argv: []string{"pwd"}, Seed: 1}
	opts.Machine, opts.ProbeMech = spec.Name, spec.Mech()
	var obs *obsv.Observer
	s, err := rr.Record(spec, rr.Hooks{BeforeLaunch: func(w *interpose.World) {
		obs = obsv.New(opts)
		obs.Install(w.K)
	}})
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		return nil, nil, err
	}
	return s, obs.Snapshot(), nil
}

// makeArtifacts writes one small real artifact of every kind from two
// pwd runs: one under K23 that learns an SFIP policy, then a natively
// run one with every other observer on, checked against that policy,
// which it violates. Small artifacts keep fuzz minimization fast.
func makeArtifacts() (map[string][]byte, error) {
	_, learned, err := observedPwd("k23-ultra+", obsv.Options{SfipLearn: true})
	if err != nil {
		return nil, err
	}
	probes, err := obsv.CompileProbes("syscall:*:exit { count() by (name); hist(cycles) }\nsyscall:write:exit { emit() }")
	if err != nil {
		return nil, err
	}
	s, snap, err := observedPwd("native", obsv.Options{Trace: true, RingSize: 32, Spans: true, Audit: true,
		Probes: probes, SfipPolicy: learned.SfipPolicy, SfipMode: sfip.ModeLog})
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for kind, write := range map[string]func(io.Writer) error{
		obsv.Kind:       func(w io.Writer) error { return obsv.WriteJSONL(w, obsv.Ring{Recs: snap.Trace}) },
		audit.Kind:      snap.Audit.WriteJSONL,
		span.Kind:       func(w io.Writer) error { return span.WriteJSONL(w, snap.Spans...) },
		probe.Kind:      snap.Probes.WriteJSONL,
		sfip.PolicyKind: learned.SfipPolicy.WriteJSONL,
		sfip.ReportKind: snap.Sfip.WriteJSONL,
		rr.Kind:         s.Rec.WriteJSONL,
	} {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			return nil, err
		}
		out[kind] = b.Bytes()
	}
	return out, nil
}

// artifacts returns the real artifacts, built once per test binary.
func artifacts(tb testing.TB) map[string][]byte {
	tb.Helper()
	artsOnce.Do(func() { arts, artsErr = makeArtifacts() })
	if artsErr != nil {
		tb.Fatalf("building artifacts: %v", artsErr)
	}
	return arts
}

func sortedKinds(m map[string][]byte) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// TestValidatesEveryKind: every kind has a validator, and each real
// artifact passes through the header dispatch.
func TestValidatesEveryKind(t *testing.T) {
	a := artifacts(t)
	if len(a) != len(validators) {
		t.Fatalf("%d artifact kinds built, %d validators", len(a), len(validators))
	}
	for _, kind := range sortedKinds(a) {
		if _, err := validate(a[kind]); err != nil {
			t.Errorf("%s: real artifact rejected: %v", kind, err)
		}
	}
	if !strings.Contains(string(a[sfip.ReportKind]), `"t":"violation"`) {
		t.Error("sfip report has no violation records")
	}
}

// TestRejectsDamagedArtifacts: per kind, a real artifact with one
// edited body byte, its last record dropped, its trailer missing, a
// record after the trailer, or a header naming another kind or version
// is rejected with an error.
func TestRejectsDamagedArtifacts(t *testing.T) {
	a := artifacts(t)
	kinds := sortedKinds(a)
	for i, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			data := string(a[kind])
			lines := strings.SplitAfter(data, "\n")
			n := len(lines) - 1 // lines[n] is empty; lines[n-1] is the trailer
			last := lines[n-2]
			j := strings.IndexAny(last, "0123456789")
			edited := last[:j] + string('0'+(last[j]-'0'+1)%10) + last[j+1:]
			header := `"kind":"` + kind + `"`
			for _, tc := range []struct{ name, data string }{
				{"edited body byte", strings.Join(lines[:n-2], "") + edited + lines[n-1]},
				{"dropped last record", strings.Join(lines[:n-2], "") + lines[n-1]},
				{"missing trailer", strings.Join(lines[:n-1], "")},
				{"record after trailer", data + last},
				{"wrong version", strings.Replace(data, `"v":`, `"v":9`, 1)},
			} {
				if _, err := validate([]byte(tc.data)); err == nil {
					t.Errorf("%s accepted", tc.name)
				}
			}
			other := strings.Replace(data, header, `"kind":"`+kinds[(i+1)%len(kinds)]+`"`, 1)
			if _, err := validators[kind](strings.NewReader(other)); err == nil {
				t.Error("wrong kind accepted")
			}
		})
	}
}

// FuzzReadArtifact: any body, sealed with a matching header and trailer
// so mutations reach the per-kind decoders, makes obsvcheck's dispatch
// return an error or a summary — never panic, hang or allocate without
// bound. Each kind is seeded with the first records and the last record
// of its real pwd artifact: the fuzzer minimizes every new input, which
// stalls all workers for seconds per input on multi-kilobyte seeds.
func FuzzReadArtifact(f *testing.F) {
	a := artifacts(f)
	versions := map[string]int{}
	for _, kind := range sortedKinds(a) {
		lines := bytes.SplitAfter(a[kind], []byte("\n"))
		_, v, err := canon.Header(lines[0])
		if err != nil {
			f.Fatal(err)
		}
		versions[kind] = v
		body := lines[1 : len(lines)-2]
		if len(body) > 6 {
			body = append(body[:5:5], body[len(body)-1])
		}
		f.Add(kind, bytes.Join(body, nil))
	}
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		validate(canon.Seal(kind, versions[kind], body))
	})
}
