package robinset

import (
	"testing"
	"testing/quick"
)

func TestInsertContains(t *testing.T) {
	s := New(4)
	keys := []uint64{0, 1, 2, 0xdeadbeef, 1 << 40, ^uint64(0)}
	for _, k := range keys {
		if !s.Insert(k) {
			t.Fatalf("Insert(%#x) reported duplicate", k)
		}
	}
	for _, k := range keys {
		if !s.Contains(k) {
			t.Fatalf("Contains(%#x) = false", k)
		}
	}
	if s.Contains(12345) {
		t.Fatal("Contains(12345) = true")
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
}

func TestInsertDuplicate(t *testing.T) {
	s := New(0)
	if !s.Insert(7) {
		t.Fatal("first insert failed")
	}
	if s.Insert(7) {
		t.Fatal("duplicate insert reported new")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestGrowthKeepsAll(t *testing.T) {
	s := New(0)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		s.Insert(i)
	}
	for i := uint64(0); i < n; i++ {
		if !s.Contains(i) {
			t.Fatalf("lost key %d after growth", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if s.Contains(1) {
		t.Fatal("empty set contains 1")
	}
	s.Insert(1)
	if !s.Contains(1) {
		t.Fatal("zero-value insert lost")
	}
}

func TestMemBytesSmallForLoggedSites(t *testing.T) {
	// The P4b argument: a set holding ~100 sites must be tiny compared
	// to an address-space bitmap.
	s := New(0)
	for i := uint64(0); i < 100; i++ {
		s.Insert(0x55000000 + i*37)
	}
	if s.MemBytes() > 4096 {
		t.Fatalf("MemBytes = %d for 100 sites; want under a page", s.MemBytes())
	}
}

// Property: a set behaves like map[uint64]bool under arbitrary
// insert/lookup interleavings.
func TestQuickModelCheck(t *testing.T) {
	f := func(ops []uint64) bool {
		s := New(0)
		model := map[uint64]bool{}
		for _, op := range ops {
			key := op >> 1
			if op&1 == 0 {
				ins := s.Insert(key)
				if ins == model[key] {
					return false // Insert returns true iff new
				}
				model[key] = true
			} else if s.Contains(key) != model[key] {
				return false
			}
			if s.Len() != len(model) {
				return false
			}
		}
		for k := range model {
			if !s.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
