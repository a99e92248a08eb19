package bench

import (
	"context"
	"fmt"
	"strings"

	"k23/internal/apps"
	"k23/internal/asm"
	"k23/internal/core"
	"k23/internal/cpu"
	"k23/internal/disasm"
	"k23/internal/interpose"
	"k23/internal/interpose/variants"
	"k23/internal/kernel"
	"k23/internal/machine"
)

// Figure1 regenerates the content of the paper's Figure 1: a code region
// containing genuine SYSCALL instructions, a partial instruction whose
// immediate embeds the SYSCALL opcode, and embedded data resembling a
// SYSCALL — annotated with what linear-sweep disassembly and a raw byte
// scan each report, versus ground truth.
func Figure1() string {
	b := asm.NewBuilder("/fig1/demo")
	t := b.Text()
	t.Label("_start")
	t.MovImm32(cpu.RAX, 39)
	t.Label("real_site")
	t.Syscall() // genuine
	t.Label("partial")
	// MOVIMM whose immediate bytes contain 0F 05: a partial instruction.
	t.Raw(0xB8, 0x00, 0x0F, 0x05, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90)
	t.Jmp(".after")
	t.Label("data_blob")
	t.Raw(0xAB, 0x0F, 0x05, 0xAB) // jump-table bytes resembling SYSCALL
	t.Label(".after")
	t.Label("real_site2")
	t.Sysenter() // genuine legacy encoding
	t.Ret()
	im := b.MustBuild()
	sec, _ := im.Section(".text")

	sweep := disasm.LinearSweep(sec.Data, 0)
	bytescan := disasm.FindByteSites(sec.Data, 0)
	var truth []uint64
	truth = append(truth, im.TrueSites...)
	_, mis, overlooked := disasm.Diff(sweep.Sites, truth)

	var out strings.Builder
	out.WriteString("Figure 1 — anatomy of syscall-instruction misidentification\n\n")
	annotate := func(off uint64) string {
		var tags []string
		for _, a := range truth {
			if a == off {
				tags = append(tags, "GENUINE")
			}
		}
		for _, s := range sweep.Sites {
			if s.Addr == off {
				tags = append(tags, "found-by-linear-sweep")
			}
		}
		for _, s := range bytescan {
			if s.Addr == off {
				tags = append(tags, "matches-byte-pattern")
			}
		}
		return strings.Join(tags, ", ")
	}
	interesting := map[string]uint64{
		"real syscall":          im.Symbols["real_site"],
		"partial instruction+2": im.Symbols["partial"] + 2,
		"embedded data+1":       im.Symbols["data_blob"] + 1,
		"real sysenter":         im.Symbols["real_site2"],
	}
	for _, name := range []string{"real syscall", "partial instruction+2", "embedded data+1", "real sysenter"} {
		off := interesting[name]
		fmt.Fprintf(&out, "  offset %#04x  %-22s -> %s\n", off, name, annotate(off))
	}
	fmt.Fprintf(&out, "\n  linear sweep: %d sites (%d misidentified), %d genuine sites overlooked, %d resyncs\n",
		len(sweep.Sites), len(mis), len(overlooked), sweep.Resyncs)
	fmt.Fprintf(&out, "  byte scan over-approximation: %d candidate sites vs %d genuine\n",
		len(bytescan), len(truth))
	out.WriteString("\n  zpoline rewrites what the sweep reports (P3a); lazypoline rewrites\n")
	out.WriteString("  whatever traps, including hijacked data (P3b); K23 rewrites only\n")
	out.WriteString("  offline-validated sites.\n")
	return out.String()
}

// Figure2 regenerates the offline-phase flow of the paper's Figure 2 as
// an event trace: kernel trap -> libLogger -> log entry -> original
// syscall -> return.
func Figure2() (string, error) {
	w, err := macroWorld()
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("Figure 2 — offline phase (libLogger over SUD), first traps of `ls`:\n\n")
	shown := 0
	w.K.EventHook = func(ev kernel.Event) {
		if ev.Kind == kernel.EvSudSigsys && shown < 4 {
			shown++
			fmt.Fprintf(&out, "  (1) syscall %d invoked at site %#x\n", ev.Num, ev.Site)
			fmt.Fprintf(&out, "  (2) kernel traps it -> SIGSYS -> libLogger handler\n")
			fmt.Fprintf(&out, "  (3) libLogger resolves the site via /proc/<pid>/maps and logs (region, offset)\n")
			fmt.Fprintf(&out, "  (4) libLogger re-executes the call, returns its result, resumes the app\n\n")
		}
	}
	_, n, err := machine.Offline(context.Background(), w, apps.LsPath, []string{"ls", "/data"}, 0)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&out, "  ... %d unique (region, offset) pairs logged in total\n", n)
	return out.String(), nil
}

// Figure4 regenerates the online-phase flow of the paper's Figure 4 as a
// phase-annotated trace of `ls` under K23.
func Figure4() (string, error) {
	w, err := macroWorld()
	if err != nil {
		return "", err
	}
	// Offline first, so the single rewriting step has sites.
	logPath, _, err := machine.Offline(context.Background(), w, apps.LsPath, []string{"ls", "/data"}, 0)
	if err != nil {
		return "", err
	}
	spec, _ := variants.ByName("k23-ultra+")
	k23 := spec.New(interpose.Config{}, logPath).(*core.K23)
	p, err := k23.Launch(w, apps.LsPath, []string{"ls", "/data"}, nil)
	if err != nil {
		return "", err
	}
	if err := w.K.RunUntilExit(p, 500_000_000); err != nil {
		return "", err
	}
	st := k23.Stats(p)

	var out strings.Builder
	out.WriteString("Figure 4 — online phase of `ls` under K23:\n\n")
	fmt.Fprintf(&out, "  [ptracer: interposition]  %d syscalls before/during library loading\n", k23.StartupSyscalls(p))
	fmt.Fprintf(&out, "  [handoff]                 fake syscalls %d/%d transfer state; ptracer detaches\n",
		core.FakeSyscallHandoff, core.FakeSyscallDetach)
	fmt.Fprintf(&out, "  [single rewriting step]   %d offline-validated sites -> callq *%%rax\n", st.Sites)
	fmt.Fprintf(&out, "  [libK23: interposition]   %d calls via rewritten trampoline path\n", st.Rewritten)
	fmt.Fprintf(&out, "  [SUD fallback]            %d calls from sites the offline phase missed\n", st.SUD)
	fmt.Fprintf(&out, "\n  exhaustive: every mechanism reaches the same interposition code; exit: %s\n", p.Exit)
	return out.String(), nil
}

// ClaimStartup measures the §6.1 claim: ls issues over 100 system calls
// before the interposition library loads.
func ClaimStartup() (string, error) {
	w, err := macroWorld()
	if err != nil {
		return "", err
	}
	k23 := core.New(interpose.Config{}, "")
	p, err := k23.Launch(w, apps.LsPath, []string{"ls", "/data"}, nil)
	if err != nil {
		return "", err
	}
	if err := w.K.RunUntilExit(p, 500_000_000); err != nil {
		return "", err
	}
	n := k23.StartupSyscalls(p)
	return fmt.Sprintf("ls issued %d system calls during startup, before any LD_PRELOAD\n"+
		"interposition library initialized (paper §6.1: over 100).\n", n), nil
}

// ClaimP4b compares the NULL-execution-check memory footprint: zpoline's
// address-space bitmap versus K23's robin-hood set.
func ClaimP4b() (string, error) {
	run := func(name string) (*interpose.Stats, error) {
		w, err := macroWorld()
		if err != nil {
			return nil, err
		}
		spec, _ := variants.ByName(name)
		l, err := machine.Launcher(context.Background(), w, spec, interpose.Config{}, apps.LsPath, []string{"ls", "/data"}, 0)
		if err != nil {
			return nil, err
		}
		p, err := l.Launch(w, apps.LsPath, []string{"ls", "/data"}, nil)
		if err != nil {
			return nil, err
		}
		if err := w.K.RunUntilExit(p, 500_000_000); err != nil {
			return nil, err
		}
		return l.Stats(p), nil
	}
	zp, err := run("zpoline-ultra")
	if err != nil {
		return "", err
	}
	k, err := run("k23-ultra")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("NULL-execution-check memory per process (P4b, `ls`):\n"+
		"  zpoline bitmap:  %d bytes reserved virtual, %d bytes resident\n"+
		"  K23 robin set:   %d bytes reserved virtual, %d bytes resident (%d sites)\n",
		zp.MemReservedBytes, zp.MemResidentBytes,
		k.MemReservedBytes, k.MemResidentBytes, k.Sites), nil
}
