package storage

import (
	"testing"

	"corep/internal/testutil"
)

func TestAllocCompact(t *testing.T) {
	p := newPage(TypeHashBkt)
	rec := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := p.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 2 {
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	testutil.AssertAllocs(t, 0, p.Compact)
}
