package server

import (
	"goldeneye"
	"goldeneye/internal/checkpoint"
	"goldeneye/internal/lru"
)

// resultCache is the service's content-addressed result store. Keys are
// derived from everything that determines a job's bit-exact report (model,
// pool geometry, worker count, and the campaign cell fingerprint), so a hit
// is by construction the same report the job would recompute. A hot
// in-memory LRU of maxFinishedJobs reports fronts an optional
// checkpoint.Store, which also makes results survive daemon restarts; the
// disk layer stores the report itself in its wire encoding (the sweep cell
// format), so a restored report — resolved config and sampling estimator
// included — encodes byte-identically to the one the job produced, and
// `cmd/experiments`-style tooling can read service results too. A key the
// LRU dropped is read back from the store, or recomputed, with identical
// bytes, on a memory-only daemon.
type resultCache struct {
	mem   *lru.Cache[string, *goldeneye.CampaignReport]
	store *checkpoint.Store // nil = memory-only
}

func newResultCache(dir string) (*resultCache, error) {
	c := &resultCache{mem: lru.New[string, *goldeneye.CampaignReport](maxFinishedJobs, 0, nil)}
	if dir != "" {
		st, err := checkpoint.Open(dir)
		if err != nil {
			return nil, err
		}
		c.store = st
	}
	return c, nil
}

// get returns the cached report for key, or nil. Callers serialize access
// (the server holds its mutex); reports are treated as immutable once
// cached, so returning the shared pointer is safe. A disk entry that does
// not decode — written in an older cell shape, or by a newer schema — is a
// miss.
func (c *resultCache) get(key string, hash uint64) *goldeneye.CampaignReport {
	if rep, ok := c.mem.Get(key); ok {
		return rep
	}
	if c.store == nil {
		return nil
	}
	cell, err := c.store.LoadMatching(key, hash)
	if err != nil || cell == nil || !cell.Done {
		return nil
	}
	return c.mem.Add(key, cell.Report)
}

// put caches a completed report under key, persisting it when a store is
// configured. Reports under one key encode to the same bytes, so the
// memory layer keeps whichever it stored first.
func (c *resultCache) put(key string, hash uint64, rep *goldeneye.CampaignReport) error {
	c.mem.Add(key, rep)
	if c.store == nil {
		return nil
	}
	return c.store.Save(&checkpoint.Cell{Key: key, ConfigHash: hash, Done: true, Report: rep})
}
