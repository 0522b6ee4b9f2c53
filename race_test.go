//go:build race

package gsi

// The race detector drops a quarter of sync.Pool puts at random, so
// allocation budgets that rest on pooled scratch do not hold under it.
func init() { raceEnabled = true }
