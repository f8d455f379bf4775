package testutil

import "testing"

// AssertAllocs fails the test unless fn allocates exactly want times
// per call, averaged over runs by testing.AllocsPerRun. It skips under
// -race, whose instrumentation allocates on its own.
func AssertAllocs(t *testing.T, want float64, fn func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if got := testing.AllocsPerRun(100, fn); got != want {
		t.Fatalf("allocs per call = %v, want %v", got, want)
	}
}
