// Command pitfalls runs the System Call Interposition Pitfalls PoC suite
// (paper §4) against the interposers and prints the Table 3 matrix.
//
// Usage:
//
//	pitfalls            # the paper's three columns
//	pitfalls -all       # every variant
//	pitfalls -poc P3b   # a single PoC with details
//	pitfalls -explain   # each PoC with a flight-recorder excerpt
//	                    # around the triggering event
//	pitfalls -audit     # cross-check every verdict against the
//	                    # shadow-map auditor's stream-derived verdict
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/obsv"
	"k23/internal/pitfalls"
)

// runPoC runs one PoC under spec and prints its verdict. With explain
// set, a flight recorder is attached to every world the PoC builds at
// the runner's attach point, and the trace excerpt around the
// triggering event of the last world that recorded one is printed too.
func runPoC(ctx context.Context, poc pitfalls.PoC, spec variants.Spec, explain bool) {
	var optsFor func(int) obsv.Options
	if explain {
		optsFor = func(int) obsv.Options { return obsv.Options{Trace: true, RingSize: 1024} }
	}
	c, err := poc.Observe(ctx, spec, optsFor)
	if err != nil {
		fmt.Fprintf(os.Stderr, "  %-18s ERROR: %v\n", spec.Name, err)
		return
	}
	mark := "not handled"
	if c.Handled {
		mark = "HANDLED"
	}
	fmt.Printf("  %-18s %-12s %s\n", spec.Name, mark, c.Detail)
	if !explain {
		return
	}
	// Prefer the last world whose recorder caught a fault-class event
	// (signal, SIGSYS, process death) — that is where the PoC fired.
	var best []obsv.Record
	for _, o := range c.Observers {
		recs := o.Snapshot().Trace
		ex := obsv.Excerpt(recs, 3)
		if len(ex) == 0 {
			continue
		}
		if best == nil {
			best = ex
			continue
		}
		for _, r := range ex {
			switch r.Kind {
			case kernel.EvSignal, kernel.EvSudSigsys, kernel.EvSeccompSigsys, kernel.EvExitProc:
				best = ex
			}
		}
	}
	if best == nil {
		fmt.Println("    (no events recorded)")
		return
	}
	for _, r := range best {
		fmt.Printf("    %s\n", obsv.FormatRecord(r, nil))
	}
}

func main() {
	all := flag.Bool("all", false, "run every interposer variant, not just the Table 3 columns")
	onePoc := flag.String("poc", "", "run a single PoC (P1a..P5) and print details")
	explain := flag.Bool("explain", false, "print a flight-recorder excerpt around each PoC's triggering event")
	auditFlag := flag.Bool("audit", false, "rerun the matrix with the shadow-map auditor attached and cross-check each verdict against the streams alone")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	specs := variants.Table3Columns()
	if *all {
		specs = nil
		for _, s := range variants.Specs() {
			switch s.Name {
			case "native", "sud-no-interposition", "ptrace", "sud":
				continue
			}
			specs = append(specs, s)
		}
	}

	if *onePoc != "" || *explain {
		found := *onePoc == ""
		for _, poc := range pitfalls.All() {
			if *onePoc != "" && poc.ID != *onePoc {
				continue
			}
			found = true
			fmt.Printf("%s — %s\n", poc.ID, poc.Title)
			for _, spec := range specs {
				runPoC(ctx, poc, spec, *explain)
			}
			if *onePoc != "" {
				return
			}
			fmt.Println()
		}
		if !found {
			fmt.Fprintf(os.Stderr, "pitfalls: unknown PoC %q\n", *onePoc)
			os.Exit(2)
		}
		return
	}

	if *auditFlag {
		fmt.Println("System Call Interposition Pitfalls (paper Table 3) — audit parity")
		fmt.Println("Each verdict is independently rederived by the shadow-map auditor")
		fmt.Println("from the ground-truth vs attribution syscall streams alone.")
		fmt.Println()
		cells, err := pitfalls.AuditMatrix(specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pitfalls:", err)
			os.Exit(1)
		}
		fmt.Print(pitfalls.FormatAuditMatrix(cells))
		bad := 0
		for i := range cells {
			c := &cells[i]
			if c.Agree() {
				continue
			}
			bad++
			fmt.Printf("\nMISMATCH %s / %s:\n  poc:   handled=%-5v %s\n  audit: handled=%-5v %s\n",
				c.Pitfall, c.Interposer, c.Handled, c.Detail, c.AuditHandled, c.AuditDetail)
		}
		if bad > 0 {
			os.Exit(1)
		}
		return
	}

	fmt.Println("System Call Interposition Pitfalls (paper Table 3)")
	fmt.Println("YES = pitfall handled or not applicable; no = vulnerable")
	fmt.Println()
	results, err := pitfalls.Matrix(specs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pitfalls:", err)
		os.Exit(1)
	}
	fmt.Print(pitfalls.FormatMatrix(results))
	fmt.Println()
	for _, poc := range pitfalls.All() {
		fmt.Printf("  %-4s %s\n", poc.ID, poc.Title)
	}
}
