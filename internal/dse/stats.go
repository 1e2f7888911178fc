package dse

import "sync/atomic"

// SearchStats is a snapshot of the package's exploration counters, kept as
// package-global atomics (searches may run concurrently across models) and
// exposed to the telemetry registry through a collector
// (goldeneye.RegisterRuntimeCollectors).
type SearchStats struct {
	Searches    int64 // Search invocations
	Evaluations int64 // eval callback invocations (the expensive step)
	MemoHits    int64 // design points answered from the memo table
	Accepted    int64 // visited nodes meeting the accuracy threshold
}

var searchStats struct {
	searches, evaluations, memoHits, accepted atomic.Int64
}

// ReadSearchStats returns the current counter values.
func ReadSearchStats() SearchStats {
	return SearchStats{
		Searches:    searchStats.searches.Load(),
		Evaluations: searchStats.evaluations.Load(),
		MemoHits:    searchStats.memoHits.Load(),
		Accepted:    searchStats.accepted.Load(),
	}
}
