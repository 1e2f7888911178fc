//go:build !race

package tensor

// raceEnabled reports whether the binary was built with the race
// detector, which intentionally randomizes sync.Pool caching.
const raceEnabled = false
