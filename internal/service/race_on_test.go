//go:build race

package service

// raceEnabled reports whether the package was built with the race
// detector, which makes sync.Pool drop items at random.
const raceEnabled = true
