// Package robinset implements a robin-hood open-addressing hash set of
// uint64 keys. It stands in for the tsl::robin_set the K23 prototype uses
// to validate that indirect entries into the trampoline originate from
// known, rewritten syscall sites (paper §5.3): bounded by the offline
// logs, its footprint is a few cache lines, versus zpoline's
// address-space-sized bitmap (pitfall P4b). The set only grows: K23's
// site set is built from the offline log and never shrinks.
package robinset

// Set is a robin-hood hash set. The zero value is ready to use.
type Set struct {
	slots []slot
	count int
}

type slot struct {
	key  uint64
	dist int8 // probe distance + 1; 0 = empty
}

const maxLoadNum, maxLoadDen = 7, 8 // resize at 87.5% load

// New returns a set pre-sized for n elements.
func New(n int) *Set {
	s := &Set{}
	s.grow(capFor(n))
	return s
}

func capFor(n int) int {
	c := 8
	for c*maxLoadNum/maxLoadDen <= n {
		c *= 2
	}
	return c
}

// hash mixes the key (splitmix64 finalizer).
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Len returns the number of elements.
func (s *Set) Len() int { return s.count }

// grow rehashes into a table of the given capacity (power of two).
func (s *Set) grow(capacity int) {
	old := s.slots
	s.slots = make([]slot, capacity)
	s.count = 0
	for _, sl := range old {
		if sl.dist != 0 {
			s.insert(sl.key)
		}
	}
}

// Insert adds key; returns false if already present.
func (s *Set) Insert(key uint64) bool {
	if len(s.slots) == 0 || (s.count+1)*maxLoadDen > len(s.slots)*maxLoadNum {
		newCap := 8
		if len(s.slots) > 0 {
			newCap = len(s.slots) * 2
		}
		s.grow(newCap)
	}
	return s.insert(key)
}

func (s *Set) insert(key uint64) bool {
	mask := uint64(len(s.slots) - 1)
	idx := hash(key) & mask
	cur := slot{key: key, dist: 1}
	for {
		sl := &s.slots[idx]
		if sl.dist == 0 {
			*sl = cur
			s.count++
			return true
		}
		if sl.key == cur.key && sl.dist >= cur.dist {
			// Existing key can only be found while our probe distance
			// has not exceeded its own.
			if sl.key == key {
				return false
			}
		}
		if sl.dist < cur.dist {
			// Robin hood: steal from the rich (short probe distance).
			*sl, cur = cur, *sl
		}
		cur.dist++
		if cur.dist < 0 { // int8 overflow guard
			s.grow(len(s.slots) * 2)
			return s.insert(key)
		}
		idx = (idx + 1) & mask
	}
}

// Contains reports membership. Probes terminate early thanks to the
// robin-hood invariant: once the stored distance is shorter than ours,
// the key cannot be further along.
func (s *Set) Contains(key uint64) bool {
	if len(s.slots) == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	idx := hash(key) & mask
	var dist int8 = 1
	for {
		sl := &s.slots[idx]
		if sl.dist == 0 || sl.dist < dist {
			return false
		}
		if sl.key == key {
			return true
		}
		dist++
		if dist < 0 {
			return false
		}
		idx = (idx + 1) & mask
	}
}

// MemBytes estimates the resident footprint in bytes.
func (s *Set) MemBytes() uint64 {
	return uint64(len(s.slots)) * 9 // 8-byte key + 1-byte distance
}
