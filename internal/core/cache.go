package core

import (
	"fmt"
	"sync"

	"supercayley/internal/gens"
	"supercayley/internal/perm"
)

// Symmetry-normalized route cache.
//
// Because Route(u, v) depends only on the quotient w = v⁻¹∘u, a cache
// keyed by w serves every pair with the same quotient from one entry:
// at most N = k! distinct problems instead of N².  Keys are exact
// Lehmer ranks while they fit comfortably (k ≤ RankKeyMaxK); above
// that a 64-bit FNV-1a hash selects the entry and the stored quotient
// is compared on every hit, so a hash collision degrades to a miss
// instead of returning a wrong route.
//
// The cache is sharded: each shard owns a mutex, a map, an intrusive
// LRU list and its own hit/miss/eviction counters, so GOMAXPROCS
// routing workers contend only when they land on the same shard.

// RankKeyMaxK is the largest k whose quotients are keyed by exact
// Lehmer rank (12! ≈ 4.8·10⁸ fits easily in the uint64 key space);
// larger networks fall back to hashed keys with stored-quotient
// verification.
const RankKeyMaxK = 12

// CacheConfig sizes a RouteCache.  The zero value selects the
// defaults: 16 shards of 4096 entries (65536 routes — enough to hold
// every normalized problem of a k = 8 network at ~1.5 MB).
type CacheConfig struct {
	// Shards is the number of independent shards, rounded up to a
	// power of two.
	Shards int
	// ShardEntries bounds the number of cached routes per shard; the
	// least recently used entry is evicted beyond it.
	ShardEntries int
}

const (
	defaultShards       = 16
	defaultShardEntries = 4096
)

// CacheStats aggregates the per-shard counters.  MaxShardEntries and
// MinShardEntries expose the shard-population extrema so load
// imbalance across the splitmix64 shard picker is observable.
type CacheStats struct {
	Hits, Misses, Evictions          uint64
	Entries                          int
	MaxShardEntries, MinShardEntries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the stats on one line.
func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d shards=[%d,%d] hitrate=%.4f",
		s.Hits, s.Misses, s.Evictions, s.Entries, s.MinShardEntries, s.MaxShardEntries, s.HitRate())
}

// routeEntry is one cached normalized route, linked into its shard's
// LRU list (head = most recently used).
type routeEntry struct {
	key        uint64
	quot       perm.Perm // stored quotient for hash-keyed caches; nil when rank-keyed
	steps      []gens.GenIndex
	prev, next *routeEntry
}

type routeShard struct {
	mu                      sync.Mutex
	cap                     int
	m                       map[uint64]*routeEntry
	head, tail              *routeEntry
	hits, misses, evictions uint64
}

// RouteCache is a sharded, bounded, concurrency-safe cache of
// normalized routes.  It is keyed externally by (key, quotient) pairs
// produced by quotientKey so that CachedRouter owns the normalization.
type RouteCache struct {
	shards []routeShard
	mask   uint64
	exact  bool // keys are exact Lehmer ranks; skip quotient verification
}

// NewRouteCache builds a standalone cache; exact reports whether keys
// are collision-free (Lehmer ranks), in which case the quotient
// argument of Get/Put is never consulted and may be nil.  CachedRouter
// builds its own internally; the sharded engine (internal/shard) owns
// one per shard worker directly.
func NewRouteCache(cfg CacheConfig, exact bool) *RouteCache {
	return newRouteCache(cfg, exact)
}

// newRouteCache builds a cache; exact reports whether keys are
// collision-free (Lehmer ranks).
func newRouteCache(cfg CacheConfig, exact bool) *RouteCache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards
	}
	// Round up to a power of two so shard picking is a mask.
	np := 1
	for np < shards {
		np <<= 1
	}
	entries := cfg.ShardEntries
	if entries <= 0 {
		entries = defaultShardEntries
	}
	c := &RouteCache{shards: make([]routeShard, np), mask: uint64(np - 1), exact: exact}
	for i := range c.shards {
		c.shards[i].cap = entries
		c.shards[i].m = make(map[uint64]*routeEntry, entries/4)
	}
	registerCache(c)
	return c
}

// splitmix64 scrambles the key so that dense Lehmer ranks (zipfian
// heads cluster at low ranks) spread evenly across shards.
//
//scg:noalloc
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

//scg:noalloc
func (c *RouteCache) shardOf(key uint64) *routeShard {
	return &c.shards[splitmix64(key)&c.mask]
}

// Get appends the cached route for (key, w) onto dst and reports
// whether it was present.  w is only consulted for hashed keys (exact
// caches may pass nil).
//
//scg:noalloc
func (c *RouteCache) Get(dst []gens.GenIndex, key uint64, w perm.Perm) ([]gens.GenIndex, bool) {
	return c.get(dst, key, w)
}

// Put stores the route for (key, w), evicting the least recently used
// entry if the shard is full.  steps is copied; w is copied only for
// hashed keys (exact caches may pass nil).
func (c *RouteCache) Put(key uint64, w perm.Perm, steps []gens.GenIndex) {
	c.put(key, w, steps)
}

// get appends the cached route for (key, w) onto dst and reports
// whether it was present.  w is only consulted for hashed keys.  The
// warm hit is the sharded engines' entire steady state, so the whole
// chain down to the LRU list surgery carries //scg:noalloc.
//
//scg:noalloc
func (c *RouteCache) get(dst []gens.GenIndex, key uint64, w perm.Perm) ([]gens.GenIndex, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[key]
	if ok && !c.exact && !e.quot.Equal(w) {
		ok = false // hash collision: treat as miss, put will overwrite
	}
	if !ok {
		sh.misses++
		sh.mu.Unlock()
		return dst, false
	}
	sh.hits++
	sh.moveToFront(e)
	dst = append(dst, e.steps...)
	sh.mu.Unlock()
	return dst, true
}

// put stores the route for (key, w), evicting the least recently used
// entry if the shard is full.  steps is copied; w is copied only for
// hashed keys.
func (c *RouteCache) put(key uint64, w perm.Perm, steps []gens.GenIndex) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		// Either a racing fill of the same quotient (identical route)
		// or a hash collision being overwritten by the newer quotient.
		e.steps = append(e.steps[:0], steps...)
		if !c.exact {
			e.quot = append(e.quot[:0], w...)
		}
		sh.moveToFront(e)
		sh.mu.Unlock()
		return
	}
	e := &routeEntry{key: key, steps: append([]gens.GenIndex(nil), steps...)}
	if !c.exact {
		e.quot = w.Clone()
	}
	sh.m[key] = e
	sh.pushFront(e)
	if len(sh.m) > sh.cap {
		lru := sh.tail
		sh.unlink(lru)
		delete(sh.m, lru.key)
		sh.evictions++
	}
	sh.mu.Unlock()
}

//scg:noalloc
func (sh *routeShard) pushFront(e *routeEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

//scg:noalloc
func (sh *routeShard) unlink(e *routeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

//scg:noalloc
func (sh *routeShard) moveToFront(e *routeEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Stats sums the per-shard counters and records the shard-population
// extrema.
func (c *RouteCache) Stats() CacheStats {
	var s CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		n := len(sh.m)
		sh.mu.Unlock()
		s.Entries += n
		if i == 0 || n > s.MaxShardEntries {
			s.MaxShardEntries = n
		}
		if i == 0 || n < s.MinShardEntries {
			s.MinShardEntries = n
		}
	}
	return s
}
