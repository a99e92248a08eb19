// Command obsvcheck validates the JSONL artifacts k23 and benchtab
// write: flight-recorder traces, audit reports, span traces, probe
// aggregations, SFIP policies and reports, and rr recordings. Every
// artifact opens with a canon header naming its kind (DESIGN.md §2k);
// obsvcheck reads it and runs that kind's reader, which checks the
// envelope — kind, version, record count and content hash, so an
// edited, dropped or appended line is rejected — and then the kind's
// own schema and cross-record rules. CI runs it over every artifact
// its smoke jobs produce, so a format regression fails the build
// instead of silently corrupting downstream tooling.
//
// Usage:
//
//	obsvcheck FILE...   validate each artifact
//	obsvcheck -         validate stdin
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"k23/internal/audit"
	"k23/internal/canon"
	"k23/internal/obsv"
	"k23/internal/probe"
	"k23/internal/rr"
	"k23/internal/sfip"
	"k23/internal/span"
)

// counted adapts a validator that returns a record count.
func counted(what string, check func(io.Reader) (int, error)) func(io.Reader) (string, error) {
	return func(r io.Reader) (string, error) {
		n, err := check(r)
		return fmt.Sprintf("%s OK (%d records)", what, n), err
	}
}

// validators maps each artifact kind to its reader, which returns a
// one-line summary of what it checked.
var validators = map[string]func(io.Reader) (string, error){
	obsv.Kind:       counted("trace", obsv.ValidateJSONL),
	audit.Kind:      counted("audit report", audit.ValidateJSONL),
	probe.Kind:      counted("probe aggregation", probe.ValidateJSONL),
	sfip.PolicyKind: counted("sfip policy", sfip.ValidatePolicyJSONL),
	sfip.ReportKind: counted("sfip report", sfip.ValidateJSONL),
	span.Kind: func(r io.Reader) (string, error) {
		rep, err := span.ValidateJSONL(r)
		if err != nil {
			return "", err
		}
		if !rep.Ok() {
			return "", errors.New(strings.Join(rep.Problems, "\n"))
		}
		return fmt.Sprintf("spans OK (%d machines, %d spans, %d slices)", rep.Machines, rep.Spans, rep.Slices), nil
	},
	rr.Kind: func(r io.Reader) (string, error) {
		rec, err := rr.ReadJSONL(r)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("recording OK (%d events, %d checkpoints, %d chaos decisions)",
			len(rec.Events), len(rec.Checkpoints), len(rec.Chaos)), nil
	},
}

// validate runs the validator the artifact's header names.
func validate(data []byte) (string, error) {
	first, _, _ := bytes.Cut(data, []byte("\n"))
	kind, _, err := canon.Header(first)
	if err != nil {
		return "", err
	}
	check, ok := validators[kind]
	if !ok {
		return "", fmt.Errorf("unknown artifact kind %q", kind)
	}
	return check(bytes.NewReader(data))
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsvcheck FILE... | obsvcheck -")
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ok := true
	for _, name := range flag.Args() {
		var data []byte
		var err error
		if name == "-" {
			name = "stdin"
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(name)
		}
		var summary string
		if err == nil {
			summary, err = validate(data)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsvcheck: %s: %v\n", name, err)
			ok = false
			continue
		}
		fmt.Printf("%s: %s\n", name, summary)
	}
	if !ok {
		os.Exit(1)
	}
}
