package kernel

import (
	"fmt"
	"strings"
)

// registerProcMaps installs the synthetic /proc/<pid>/maps file for p.
// K23's libLogger parses it to translate syscall instruction addresses
// into stable (region, offset) pairs (paper §5.1).
func (k *Kernel) registerProcMaps(p *Process) {
	path := fmt.Sprintf("/proc/%d/maps", p.PID)
	k.FS.RegisterSynthetic(path, func() ([]byte, error) {
		return []byte(formatMaps(p)), nil
	})
}

// formatMaps renders p's address space in /proc/<pid>/maps format.
func formatMaps(p *Process) string {
	var b strings.Builder
	for _, r := range p.AS.Regions() {
		name := r.Name
		fmt.Fprintf(&b, "%012x-%012x %sp 00000000 00:00 0", r.Start, r.End, r.Perm)
		if name != "" {
			fmt.Fprintf(&b, "                          %s", name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParseMapsLine parses one /proc/<pid>/maps line into (start, end, perms,
// name). Helper for guest-side tooling and tests.
func ParseMapsLine(line string) (start, end uint64, perms, name string, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, "", "", fmt.Errorf("kernel: short maps line %q", line)
	}
	var s, e uint64
	if _, err := fmt.Sscanf(fields[0], "%x-%x", &s, &e); err != nil {
		return 0, 0, "", "", fmt.Errorf("kernel: bad maps range %q: %w", fields[0], err)
	}
	name = ""
	if len(fields) >= 6 {
		name = fields[5]
	}
	return s, e, fields[1], name, nil
}
