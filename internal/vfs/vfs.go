// Package vfs implements the in-memory filesystem backing the simulated
// kernel: regular files, directories, permission bits, an immutable flag
// (the chattr +i analogue K23 uses to harden its offline log directory),
// and synthetic files whose content is generated on open (used for
// /proc/<pid>/maps).
package vfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"k23/internal/canon"
)

// Mode is a simplified permission mode.
type Mode uint16

// Common modes.
const (
	ModeRead  Mode = 0o4
	ModeWrite Mode = 0o2
	ModeExec  Mode = 0o1
	ModeRW         = ModeRead | ModeWrite
	ModeRX         = ModeRead | ModeExec
)

// Error values mirror the errno the kernel maps them to.
var (
	ErrNotExist  = fmt.Errorf("vfs: no such file or directory")
	ErrExist     = fmt.Errorf("vfs: file exists")
	ErrIsDir     = fmt.Errorf("vfs: is a directory")
	ErrNotDir    = fmt.Errorf("vfs: not a directory")
	ErrPerm      = fmt.Errorf("vfs: permission denied")
	ErrImmutable = fmt.Errorf("vfs: operation not permitted (immutable)")
)

type node struct {
	name      string
	dir       bool
	data      []byte
	mode      Mode
	immutable bool
	children  map[string]*node
}

// FS is an in-memory filesystem. The zero value is not usable; call New.
// FS is safe for concurrent use.
type FS struct {
	mu        sync.RWMutex
	root      *node
	synthetic map[string]func() ([]byte, error)
}

// New returns an empty filesystem containing only the root directory.
func New() *FS {
	return &FS{
		root:      &node{name: "/", dir: true, mode: ModeRX | ModeWrite, children: map[string]*node{}},
		synthetic: map[string]func() ([]byte, error){},
	}
}

// clean normalizes p to an absolute slash path.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// split returns the parent directory path and base name.
func split(p string) (dir, base string) {
	p = clean(p)
	return path.Dir(p), path.Base(p)
}

// lookupLocked walks to the node for p. Caller holds mu.
func (f *FS) lookupLocked(p string) (*node, error) {
	p = clean(p)
	if p == "/" {
		return f.root, nil
	}
	cur := f.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if !cur.dir {
			return nil, ErrNotDir
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, ErrNotExist
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates directory p and any missing parents.
func (f *FS) MkdirAll(p string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p = clean(p)
	if p == "/" {
		return nil
	}
	cur := f.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		next, ok := cur.children[part]
		if !ok {
			if cur.immutable {
				return ErrImmutable
			}
			next = &node{name: part, dir: true, mode: ModeRX | ModeWrite, children: map[string]*node{}}
			cur.children[part] = next
		} else if !next.dir {
			return ErrNotDir
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the regular file at p with data.
func (f *FS) WriteFile(p string, data []byte, mode Mode) error {
	dir, base := split(p)
	if err := f.MkdirAll(dir); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, err := f.lookupLocked(dir)
	if err != nil {
		return err
	}
	if parent.immutable {
		return ErrImmutable
	}
	if existing, ok := parent.children[base]; ok {
		if existing.dir {
			return ErrIsDir
		}
		if existing.immutable {
			return ErrImmutable
		}
	}
	parent.children[base] = &node{name: base, data: append([]byte(nil), data...), mode: mode}
	return nil
}

// Append appends data to the file at p, creating it if absent.
func (f *FS) Append(p string, data []byte) error {
	f.mu.Lock()
	n, err := f.lookupLocked(p)
	f.mu.Unlock()
	if err == ErrNotExist {
		return f.WriteFile(p, data, ModeRW)
	}
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n.dir {
		return ErrIsDir
	}
	if n.immutable {
		return ErrImmutable
	}
	n.data = append(n.data, data...)
	return nil
}

// ReadFile returns the contents of the file at p. Synthetic files are
// generated on each call.
func (f *FS) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	f.mu.RLock()
	gen, isSyn := f.synthetic[p]
	f.mu.RUnlock()
	if isSyn {
		return gen()
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	if n.dir {
		return nil, ErrIsDir
	}
	if n.mode&ModeRead == 0 {
		return nil, ErrPerm
	}
	return append([]byte(nil), n.data...), nil
}

// Exists reports whether p names an existing file, directory, or
// synthetic file.
func (f *FS) Exists(p string) bool {
	p = clean(p)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if _, ok := f.synthetic[p]; ok {
		return true
	}
	_, err := f.lookupLocked(p)
	return err == nil
}

// IsDir reports whether p is a directory.
func (f *FS) IsDir(p string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookupLocked(p)
	return err == nil && n.dir
}

// Mode returns the mode of p.
func (f *FS) Mode(p string) (Mode, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookupLocked(p)
	if err != nil {
		return 0, err
	}
	return n.mode, nil
}

// Chmod sets the mode of p.
func (f *FS) Chmod(p string, mode Mode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookupLocked(p)
	if err != nil {
		return err
	}
	if n.immutable {
		return ErrImmutable
	}
	n.mode = mode
	return nil
}

// Unlink removes the file at p.
func (f *FS) Unlink(p string) error {
	dir, base := split(p)
	f.mu.Lock()
	defer f.mu.Unlock()
	parent, err := f.lookupLocked(dir)
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return ErrNotExist
	}
	if n.dir && len(n.children) > 0 {
		return ErrIsDir
	}
	if n.immutable || parent.immutable {
		return ErrImmutable
	}
	delete(parent.children, base)
	return nil
}

// SetImmutable marks p (and, for directories, its direct children)
// immutable, mirroring chattr +i. K23 applies this to the offline log
// directory once the offline phase completes (paper §5.3), closing the
// log-tampering attack surface.
func (f *FS) SetImmutable(p string, immutable bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.lookupLocked(p)
	if err != nil {
		return err
	}
	n.immutable = immutable
	if n.dir {
		for _, c := range n.children {
			c.immutable = immutable
		}
	}
	return nil
}

// IsImmutable reports whether p is flagged immutable.
func (f *FS) IsImmutable(p string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookupLocked(p)
	return err == nil && n.immutable
}

// readDir lists the names in directory p, sorted.
func (f *FS) readDir(p string) ([]string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, err := f.lookupLocked(p)
	if err != nil {
		return nil, err
	}
	if !n.dir {
		return nil, ErrNotDir
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// RegisterSynthetic installs a generator for path p; ReadFile(p) will call
// it. Used by the kernel for /proc/<pid>/maps.
func (f *FS) RegisterSynthetic(p string, gen func() ([]byte, error)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synthetic[clean(p)] = gen
}

// UnregisterSynthetic removes a synthetic path.
func (f *FS) UnregisterSynthetic(p string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.synthetic, clean(p))
}

// TreeHash hashes the filesystem tree: every path with its mode and
// content, in sorted order.
func (fs *FS) TreeHash() uint64 {
	h := canon.NewHash()
	var walk func(dir string)
	walk = func(dir string) {
		names, err := fs.readDir(dir)
		if err != nil {
			fmt.Fprintf(&h, "!%s:%v", dir, err)
			return
		}
		for _, name := range names {
			p := dir + "/" + name
			if dir == "/" {
				p = "/" + name
			}
			if fs.IsDir(p) {
				fmt.Fprintf(&h, "d %s\n", p)
				walk(p)
				continue
			}
			mode, _ := fs.Mode(p)
			data, err := fs.ReadFile(p)
			if err != nil {
				fmt.Fprintf(&h, "f %s %v !%v\n", p, mode, err)
				continue
			}
			fmt.Fprintf(&h, "f %s %v %d ", p, mode, len(data))
			h.Write(data)
			h.Write([]byte{'\n'})
		}
	}
	walk("/")
	return uint64(h)
}
