//go:build race

package israce

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
