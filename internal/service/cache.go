package service

import (
	"container/list"
	"encoding/json"
	"sync"
)

// Cache is the content-addressed result cache: rendered result documents
// keyed by the request fingerprint (Request.CacheKey), bounded by entry
// count with least-recently-used eviction. A repeated identical request is
// answered from here without touching the queue or the pool.
type Cache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	val json.RawMessage
}

// NewCache builds a cache holding at most capacity entries; capacity < 1
// disables caching (every lookup misses).
func NewCache(capacity int) *Cache {
	return &Cache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// Get returns the cached document for key and records a hit or miss.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores the document under key, evicting the least recently used
// entry when the cache is full.
func (c *Cache) Put(key string, val json.RawMessage) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.order.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
	}
}
