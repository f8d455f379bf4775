package buffer_test

import (
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/testutil"
)

// allocPool returns a single-shard pool of capacity frames over pages
// freshly written pages.
func allocPool(t *testing.T, policy buffer.Policy, capacity, pages int) (*buffer.Pool, []disk.PageID) {
	t.Helper()
	d := disk.NewSim()
	p, err := buffer.NewWithPolicy(d, capacity, policy)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]disk.PageID, pages)
	buf := make([]byte, disk.PageSize)
	for i := range ids {
		if ids[i], err = d.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return p, ids
}

func TestAllocPinUnpinResident(t *testing.T) {
	p, ids := allocPool(t, buffer.LRU, 4, 1)
	id := ids[0]
	if _, err := p.Pin(id); err != nil {
		t.Fatal(err)
	}
	p.Unpin(id, false)
	testutil.AssertAllocs(t, 0, func() {
		if _, err := p.Pin(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	})
}

// TestAllocEvictionPerPolicy cycles twice the pool's capacity through
// it, so every Pin evicts: no policy may allocate to pick its victim.
func TestAllocEvictionPerPolicy(t *testing.T) {
	for _, policy := range []buffer.Policy{buffer.LRU, buffer.Clock, buffer.Random} {
		t.Run(policy.String(), func(t *testing.T) {
			p, ids := allocPool(t, policy, 64, 128)
			for _, id := range ids {
				if _, err := p.Pin(id); err != nil {
					t.Fatal(err)
				}
				p.Unpin(id, false)
			}
			next := 0
			testutil.AssertAllocs(t, 0, func() {
				id := ids[next%len(ids)]
				next++
				if _, err := p.Pin(id); err != nil {
					t.Fatal(err)
				}
				p.Unpin(id, false)
			})
		})
	}
}
