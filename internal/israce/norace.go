//go:build !race

// Package israce tells tests whether the race detector is on, which changes
// allocation counts (sync.Pool drops a share of what it is given), so
// allocation-budget tests skip themselves under it.
package israce

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
