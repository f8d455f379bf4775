package hashfile

import (
	"testing"

	"corep/internal/testutil"
)

// TestAllocPutReplace replaces one key over and over: each Put deletes
// the old record and inserts the new one, compacting the bucket page
// whenever dead slots fill it, all without allocating.
func TestAllocPutReplace(t *testing.T) {
	f, _, _ := newFile(t, 4)
	val := []byte("replacement value")
	if err := f.Put(7, val); err != nil {
		t.Fatal(err)
	}
	testutil.AssertAllocs(t, 0, func() {
		if err := f.Put(7, val); err != nil {
			t.Fatal(err)
		}
	})
	if got, err := f.Get(7); err != nil || string(got) != string(val) {
		t.Fatalf("get after replaces = %q, %v", got, err)
	}
}
