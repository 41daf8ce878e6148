package check

// ForceExhaustiveI4 makes every oracle built until restore runs audit
// I4 by walking the whole pledge list and membership table on every
// delivery — the reference the audit on write is compared against. It
// sets a package variable, so callers must not run in parallel with
// other oracle tests.
func ForceExhaustiveI4() (restore func()) {
	exhaustiveI4 = true
	return func() { exhaustiveI4 = false }
}
