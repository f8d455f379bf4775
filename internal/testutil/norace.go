//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with -race. The race
// detector instruments memory accesses and allocates on its own, so
// allocation counts are only meaningful without it.
const RaceEnabled = false
