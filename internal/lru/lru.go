// Package lru is a least-recently-used cache safe for concurrent use. The
// process-wide memos (the calibration cache, the zoo's datasets and
// decoded states, the daemon's finished reports) are instances of it,
// each with its own bounds.
package lru

import (
	"slices"
	"sync"
)

// Cache maps keys to values, evicting the least recently used entries past
// an entry bound and, when one is set, a byte bound over the values' sizes.
// The first value stored under a key is kept: two callers that compute a
// value for one key concurrently both get back the one stored first.
type Cache[K comparable, V any] struct {
	maxLen   int
	maxBytes int         // 0: no byte bound, and every size counts 0
	size     func(V) int // a value's size in the byte bound

	mu      sync.Mutex
	entries []entry[K, V] // least recently used first
	bytes   int
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

// New returns a cache of at most maxLen entries. With a size function and
// maxBytes > 0 it also keeps the total of size over its values within
// maxBytes, and never stores a value larger than maxBytes on its own.
func New[K comparable, V any](maxLen, maxBytes int, size func(V) int) *Cache[K, V] {
	if size == nil {
		maxBytes = 0
	}
	return &Cache[K, V]{maxLen: maxLen, maxBytes: maxBytes, size: size}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.index(key)
	if i < 0 {
		var zero V
		return zero, false
	}
	return c.use(i), true
}

// Add stores v under key unless the key already holds a value, and returns
// the value the key holds, marking it most recently used: the earlier one,
// or v. A value larger than the byte bound on its own is returned but not
// stored. Past either bound the least recently used entries are evicted.
func (c *Cache[K, V]) Add(key K, v V) V {
	n := 0
	if c.maxBytes > 0 {
		n = c.size(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.index(key); i >= 0 {
		return c.use(i)
	}
	if n > c.maxBytes {
		return v
	}
	c.entries = append(c.entries, entry[K, V]{key, v, n})
	c.bytes += n
	for len(c.entries) > c.maxLen || c.bytes > c.maxBytes {
		c.bytes -= c.entries[0].size
		c.entries = slices.Delete(c.entries, 0, 1)
	}
	return v
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Clear empties the cache.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries, c.bytes = nil, 0
}

// use moves entry i to the most recently used end and returns its value;
// c.mu is held.
func (c *Cache[K, V]) use(i int) V {
	e := c.entries[i]
	c.entries = append(slices.Delete(c.entries, i, i+1), e)
	return e.val
}

// index returns the position of key's entry, or -1; c.mu is held.
func (c *Cache[K, V]) index(key K) int {
	return slices.IndexFunc(c.entries, func(e entry[K, V]) bool { return e.key == key })
}
