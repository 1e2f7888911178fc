package lru

import (
	"sync"
	"testing"
)

// The cache evicts least recently used values past either bound, keeps the
// first value stored under a key, and never stores a value larger than the
// byte bound on its own.
func TestBounds(t *testing.T) {
	const maxLen, maxBytes = 16, 1 << 20
	c := New[int](maxLen, maxBytes, func(v []byte) int { return len(v) })
	value := func(n int) []byte { return make([]byte, n) }

	first := value(1)
	c.Add(0, first)
	if got := c.Add(0, value(1)); &got[0] != &first[0] {
		t.Fatal("a second Add did not return the key's first value")
	}
	if got, _ := c.Get(0); &got[0] != &first[0] {
		t.Fatal("a second Add replaced the key's first value")
	}
	for i := 1; i < maxLen; i++ {
		c.Add(i, value(1))
	}
	c.Get(0) // most recently used: key 1 is now the oldest
	c.Add(maxLen, value(1))
	if c.Len() != maxLen {
		t.Fatalf("%d entries past the bound of %d", c.Len(), maxLen)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("eviction kept the least recently used entry")
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("eviction took a recently used entry")
	}

	c.Clear()
	if got := c.Add(0, value(maxBytes+1)); len(got) != maxBytes+1 || c.Len() != 0 {
		t.Fatal("a value over the byte bound on its own was stored, or not returned")
	}
	c.Add(1, value(maxBytes/2))
	c.Add(2, value(maxBytes/2))
	c.Add(3, value(1))
	if _, ok := c.Get(1); ok {
		t.Fatalf("byte bound not kept: %d entries", c.Len())
	}
	if _, ok := c.Get(2); !ok {
		t.Fatal("byte-bound eviction took more than the oldest entry")
	}
}

// Concurrent Adds of distinct values under one key all get back the one
// value stored: the lookup and the store are one step. 8 goroutines, started
// at once, each Add their own value under every key of a run.
func TestAddKeepsFirstConcurrent(t *testing.T) {
	const keys = 1000
	c := New[int, *int](keys, 0, nil)
	got := make([][]*int, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := range keys {
				got[g] = append(got[g], c.Add(k, new(int)))
			}
		}()
	}
	close(start)
	wg.Wait()
	for k := range keys {
		kept, _ := c.Get(k)
		for g := range got {
			if got[g][k] != kept {
				t.Fatalf("key %d: concurrent Adds got back different values", k)
			}
		}
	}
}

// Adding under a cached key marks it most recently used, as a Get does.
// Without a size function the byte bound does not apply.
func TestAddMarksUsed(t *testing.T) {
	c := New[string, int](2, 1, nil)
	c.Add("a", 1)
	c.Add("b", 2)
	if got := c.Add("a", 3); got != 1 {
		t.Fatalf("Add over a cached key returned %d, want the first value 1", got)
	}
	c.Add("c", 4)
	if _, ok := c.Get("b"); ok {
		t.Fatal("eviction kept the least recently used entry")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("eviction took the entry a later Add used")
	}
}
