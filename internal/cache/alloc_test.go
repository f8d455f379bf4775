package cache

import (
	"testing"

	"corep/internal/testutil"
)

// TestAllocLookupHit pins a one-segment hit to one allocation: the copy
// the caller receives.
func TestAllocLookupHit(t *testing.T) {
	c, _ := newCache(t, 10)
	u := unit(1, 2, 3)
	if err := c.Insert(u, []byte("one segment")); err != nil {
		t.Fatal(err)
	}
	testutil.AssertAllocs(t, 1, func() {
		if _, ok, err := c.LookupSnap(u, 0); err != nil || !ok {
			t.Fatalf("lookup: ok=%v err=%v", ok, err)
		}
	})
}
