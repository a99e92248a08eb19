// Package sfip implements simulated syscall-flow-integrity protection
// (SFIP, after Canella et al.): a per-application policy learned from
// audited training runs — the set of legitimate trap origin sites plus a
// coarse syscall-transition digraph — and an enforcer that checks every
// trap-origin syscall against that policy at kernel entry (DESIGN.md
// §2h). The policy is deliberately trained on the audit join's
// *classification* rather than the raw oracle stream: only calls the
// auditor attributes to the interposer ("covered") or to signal
// infrastructure are learned, so pitfall escapes never contaminate a
// policy and therefore trip it at enforcement time.
package sfip

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"k23/internal/canon"
	"k23/internal/kernel"
)

// FirstCall is the sentinel predecessor for the first trap-origin
// syscall a thread issues: the transition digraph models "thread start"
// as a pseudo-node so the first real call is policed too.
const FirstCall int64 = -1

// originKey is one legitimate (syscall, origin site) pair.
type originKey struct {
	Nr   uint64
	Site uint64
}

// edgeKey is one legitimate transition in the coarse per-thread syscall
// digraph. From is a syscall number, or FirstCall for thread start.
type edgeKey struct {
	From int64
	To   uint64
}

// Policy is a learned per-application SFIP policy: the allowed origin
// set and the allowed transition digraph, with observation counts.
// Counts make Merge order-independent (fleet aggregation) and give the
// report a notion of how well-trodden each edge is; membership alone
// decides enforcement.
type Policy struct {
	// App and Mech name the workload and mechanism the policy was
	// trained under (informational; carried through serialization).
	App  string
	Mech string

	origins map[originKey]uint64
	edges   map[edgeKey]uint64
}

// PolicyVersion is the current serialization format version.
const PolicyVersion = 1

// NewPolicy returns an empty policy for the named app and mechanism.
func NewPolicy(app, mech string) *Policy {
	return &Policy{
		App:     app,
		Mech:    mech,
		origins: make(map[originKey]uint64),
		edges:   make(map[edgeKey]uint64),
	}
}

// AddOrigin records one observation of syscall nr trapping from site.
func (p *Policy) AddOrigin(nr, site uint64) { p.origins[originKey{nr, site}]++ }

// AddEdge records one observation of the transition from → to.
func (p *Policy) AddEdge(from int64, to uint64) { p.edges[edgeKey{from, to}]++ }

// AllowedOrigin reports whether (nr, site) is in the learned origin set.
func (p *Policy) AllowedOrigin(nr, site uint64) bool {
	_, ok := p.origins[originKey{nr, site}]
	return ok
}

// AllowedEdge reports whether the transition from → to is in the
// learned digraph.
func (p *Policy) AllowedEdge(from int64, to uint64) bool {
	_, ok := p.edges[edgeKey{from, to}]
	return ok
}

// Origins and Edges report the policy's cardinality.
func (p *Policy) Origins() int { return len(p.origins) }
func (p *Policy) Edges() int   { return len(p.edges) }

// Merge folds other's observations into p (count sums). Merge is
// commutative and associative over the counts, so fleet-level policies
// are independent of machine completion order.
func (p *Policy) Merge(other *Policy) {
	if other == nil {
		return
	}
	for k, n := range other.origins {
		p.origins[k] += n
	}
	for k, n := range other.edges {
		p.edges[k] += n
	}
}

// sortedOrigins returns the origin keys in (Nr, Site) order.
func (p *Policy) sortedOrigins() []originKey {
	keys := make([]originKey, 0, len(p.origins))
	for k := range p.origins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Nr != keys[j].Nr {
			return keys[i].Nr < keys[j].Nr
		}
		return keys[i].Site < keys[j].Site
	})
	return keys
}

// sortedEdges returns the edge keys in (From, To) order.
func (p *Policy) sortedEdges() []edgeKey {
	keys := make([]edgeKey, 0, len(p.edges))
	for k := range p.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	return keys
}

// Hash returns a deterministic FNV-1a digest of the policy's
// membership and counts (sorted serialization; map iteration order
// cannot leak in). Hash equality is the workers=1 ≡ workers=8
// determinism criterion for learned policies.
func (p *Policy) Hash() uint64 {
	h := canon.NewHash()
	fmt.Fprintf(&h, "sfip %q %q v%d\n", p.App, p.Mech, PolicyVersion)
	for _, k := range p.sortedOrigins() {
		fmt.Fprintf(&h, "o %d %#x %d\n", k.Nr, k.Site, p.origins[k])
	}
	for _, k := range p.sortedEdges() {
		fmt.Fprintf(&h, "e %d %d %d\n", k.From, k.To, p.edges[k])
	}
	return uint64(h)
}

// PolicyKind names the serialized-policy artifact (canon envelope).
// Its record tags:
//
//	policy — app and mech (exactly one, first)
//	origin — one allowed (syscall, site) pair with its count
//	edge   — one allowed transition with its count
const (
	PolicyKind = "sfip-policy"
	RecPolicy  = "policy"
	RecOrigin  = "origin"
	RecEdge    = "edge"
)

type policyRec struct {
	App  string `json:"app"`
	Mech string `json:"mech"`
}

type originRec struct {
	Nr    uint64 `json:"nr"`
	Name  string `json:"name"`
	Site  uint64 `json:"site"`
	Count uint64 `json:"count"`
}

type edgeRec struct {
	From     int64  `json:"from"` // -1 = thread start
	To       uint64 `json:"to"`
	Name     string `json:"name"` // display name of To
	Count    uint64 `json:"count"`
	FromName string `json:"from_name"`
}

// WriteJSONL serializes the policy: the policy record first, then
// origins and edges in sorted (deterministic) order.
func (p *Policy) WriteJSONL(w io.Writer) error {
	cw := canon.NewWriter(w, PolicyKind, PolicyVersion)
	cw.Record(RecPolicy, &policyRec{App: p.App, Mech: p.Mech})
	for _, k := range p.sortedOrigins() {
		cw.Record(RecOrigin, &originRec{Nr: k.Nr, Name: kernel.SyscallName(k.Nr), Site: k.Site, Count: p.origins[k]})
	}
	for _, k := range p.sortedEdges() {
		fromName := "start"
		if k.From >= 0 {
			fromName = kernel.SyscallName(uint64(k.From))
		}
		cw.Record(RecEdge, &edgeRec{From: k.From, To: k.To, Name: kernel.SyscallName(k.To),
			Count: p.edges[k], FromName: fromName})
	}
	return cw.Close()
}

// ReadPolicy parses a policy serialized by WriteJSONL.
func ReadPolicy(r io.Reader) (*Policy, error) {
	var p *Policy
	err := canon.Read(r, PolicyKind, PolicyVersion, func(tag string, line []byte) error {
		if (p == nil) != (tag == RecPolicy) {
			return fmt.Errorf("%s record out of place (policy first, once)", tag)
		}
		switch tag {
		case RecPolicy:
			var rec policyRec
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			p = NewPolicy(rec.App, rec.Mech)
		case RecOrigin:
			var rec originRec
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			p.origins[originKey{rec.Nr, rec.Site}] += rec.Count
		case RecEdge:
			var rec edgeRec
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			p.edges[edgeKey{rec.From, rec.To}] += rec.Count
		default:
			return fmt.Errorf("unknown record type %q", tag)
		}
		return nil
	})
	if err == nil && p == nil {
		err = fmt.Errorf("%s: no policy record", PolicyKind)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ValidatePolicyJSONL checks a serialized policy and returns its number
// of records.
func ValidatePolicyJSONL(r io.Reader) (int, error) {
	p, err := ReadPolicy(r)
	if err != nil {
		return 0, err
	}
	return 1 + len(p.origins) + len(p.edges), nil
}
