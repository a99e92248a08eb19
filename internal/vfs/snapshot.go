package vfs

import (
	"fmt"
	"sort"

	"k23/internal/canon"
)

// Checkpoint support: the node tree can be snapshotted and restored in
// place. Synthetic files are generator closures owned by the host
// (/proc/<pid>/maps captures its Process); they are deliberately NOT
// part of a snapshot — the kernel's checkpoint layer adds and removes
// registrations as processes appear and vanish, and restore-in-place
// keeps surviving closures valid.

// FSState is a point-in-time deep copy of the filesystem tree.
type FSState struct {
	root *node
}

// SnapshotState deep-copies the tree.
func (f *FS) SnapshotState() *FSState {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return &FSState{root: cloneNode(f.root)}
}

// RestoreState rewinds the tree to the snapshot, in place. The restored
// tree is a fresh copy, so one FSState can seed any number of restores.
func (f *FS) RestoreState(s *FSState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.root = cloneNode(s.root)
}

func cloneNode(n *node) *node {
	c := &node{
		name:      n.name,
		dir:       n.dir,
		data:      append([]byte(nil), n.data...),
		mode:      n.mode,
		immutable: n.immutable,
	}
	if n.children != nil {
		c.children = make(map[string]*node, len(n.children))
		for name, child := range n.children {
			c.children[name] = cloneNode(child)
		}
	}
	return c
}

// Hash returns an FNV-1a hash over the whole tree — every path with its
// mode, immutability and content, in sorted order. Synthetic files are
// not hashed (their content is host-generated, not filesystem state).
func (f *FS) Hash() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return hashTree(f.root)
}

// Hash returns the Hash the filesystem had when the snapshot was taken.
func (s *FSState) Hash() uint64 { return hashTree(s.root) }

func hashTree(root *node) uint64 {
	h := canon.NewHash()
	var walk func(prefix string, n *node)
	walk = func(prefix string, n *node) {
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c := n.children[name]
			p := prefix + "/" + name
			if c.dir {
				fmt.Fprintf(&h, "d %s %o %v\n", p, c.mode, c.immutable)
				walk(p, c)
				continue
			}
			fmt.Fprintf(&h, "f %s %o %v %d ", p, c.mode, c.immutable, len(c.data))
			h.Write(c.data)
			h.Write([]byte{'\n'})
		}
	}
	walk("", root)
	return uint64(h)
}
