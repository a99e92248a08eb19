package mem

// Test-only accessors: the simulator itself never calls these.

// Fetch reads n instruction bytes at addr, enforcing execute permission.
// Protection keys are ignored for fetches, which is what enables PKU-XOM.
func (a *AddressSpace) Fetch(addr uint64, n int) ([]byte, error) {
	return a.copyOut(addr, n, AccessExec, 0)
}

// RegionByName returns the first region with the given name.
func (a *AddressSpace) RegionByName(name string) (Region, bool) {
	for _, r := range a.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// StoreU64 writes a little-endian uint64 under the user plane.
func (a *AddressSpace) StoreU64(addr, v uint64, pkru PKRU) error {
	b := putLeU64(v)
	return a.Store(addr, b[:], pkru)
}

// DenyWrite returns a PKRU value equal to p with writes through key
// denied (WD=1) but reads allowed.
func (p PKRU) DenyWrite(key int) PKRU {
	return p | PKRU(0b10<<(2*key))
}

// Allow returns a PKRU value equal to p with key fully allowed.
func (p PKRU) Allow(key int) PKRU {
	return p &^ PKRU(0b11<<(2*key))
}

// StateHash returns the hash a snapshot of the address space taken now
// would have (ASState.Hash). The checkpoint property tests compare it
// across Checkpoint/mutate/Restore cycles.
func (a *AddressSpace) StateHash() uint64 {
	pages := make(map[uint64]PageState, len(a.pages))
	for pn, pg := range a.pages {
		pages[pn] = pg.state()
	}
	return hashState(pages, a.regions, a.genClock)
}
