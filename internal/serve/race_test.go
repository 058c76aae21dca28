//go:build race

package serve_test

// raceEnabled reports whether the race detector is on. It drops a
// quarter of what goes back into a sync.Pool, so pooled scratch is
// reallocated at random and allocation budgets do not hold.
const raceEnabled = true
