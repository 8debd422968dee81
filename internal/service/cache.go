package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Key is the content address of a result: the hex SHA-256 of the
// request's canonical form.
type Key string

// keyVersion names the semantics the keys address. Bump it whenever an
// unchanged request starts computing a different result, so a durable
// store (-data-dir) never serves results of the old semantics as
// current ones.
//
//	1 (unversioned): coop.ber and multihop.ber stopped adaptive budgets
//	  on the CLT rule.
//	2: every BER kernel stops adaptive budgets on the Wilson rule.
const keyVersion = 2

// CanonicalKey hashes a request into its content address. The hash
// covers the experiment ID, seed, quick flag and every solver parameter
// as sorted key=value lines, so two requests that differ only in field
// or parameter ordering — or in how their JSON was laid out — collapse
// onto the same Key. Parameter values are canonicalized first: numeric
// spellings of the same value ("10", "10.0", "1e1", " 10 ") address
// the same result. Workers and Tenant are excluded: both change who
// runs the computation or how fast, never what it computes. A version
// line (keyVersion) leads the hash.
func CanonicalKey(req Request) Key {
	h := sha256.New()
	fmt.Fprintf(h, "version=%d\n", keyVersion)
	fmt.Fprintf(h, "id=%s\n", req.ID)
	fmt.Fprintf(h, "quick=%s\n", strconv.FormatBool(req.Quick))
	fmt.Fprintf(h, "seed=%s\n", strconv.FormatInt(req.Seed, 10))
	names := make([]string, 0, len(req.Params))
	for k := range req.Params {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "param.%s=%s\n", k, canonicalParamValue(req.Params[k]))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// canonicalParamValue normalizes one parameter value for hashing:
// surrounding whitespace is trimmed, and numeric text re-renders in
// one canonical spelling. Integers within int64/uint64 stay exact
// through the integer paths; everything else numeric goes through
// float64's shortest round-trip form, so integers beyond 2^53 written
// as decimals may collapse onto nearby values — acceptable for solver
// parameters, which live nowhere near that range. NaN and the
// infinities are not meaningful parameter values and pass through as
// trimmed text, as does anything non-numeric.
func canonicalParamValue(v string) string {
	t := strings.TrimSpace(v)
	if t == "" {
		return t
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return strconv.FormatInt(i, 10)
	}
	if u, err := strconv.ParseUint(t, 10, 64); err == nil {
		return strconv.FormatUint(u, 10)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return t
}

// cacheStats counts cache traffic with atomics so snapshots never
// block the serving path.
type cacheStats struct {
	hits      atomic.Int64 // served from a completed entry
	diskHits  atomic.Int64 // served from the durable store's loader
	coalesced atomic.Int64 // waited on another caller's in-flight computation
	misses    atomic.Int64 // had to compute
	evictions atomic.Int64
}

// flight is an in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	val  string
	err  error
}

// entry is a completed, cached result.
type entry struct {
	key Key
	val string
}

// cache is the single-flight LRU result cache. In-flight computations
// are tracked separately from completed entries so the LRU bound only
// applies to results that actually exist.
type cache struct {
	mu       sync.Mutex
	max      int
	inflight map[Key]*flight
	entries  map[Key]*list.Element // of *entry
	lru      *list.List            // front = most recent
	stats    cacheStats

	// load, when set, resolves a miss from durable storage before the
	// compute path runs. It executes outside the mutex, under the same
	// single-flight registration as a computation, so concurrent callers
	// of one key trigger one disk read.
	load func(Key) (string, bool)
}

func newCache(maxEntries int) *cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &cache{
		max:      maxEntries,
		inflight: make(map[Key]*flight),
		entries:  make(map[Key]*list.Element),
		lru:      list.New(),
	}
}

// get returns a completed result without triggering computation.
func (c *cache) get(key Key) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return "", false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// do returns the cached value for key, computing it at most once across
// concurrent callers. hit reports whether this caller avoided the
// computation (a completed entry or a coalesced wait on another
// caller's). A failed or cancelled computation is not cached: its
// waiters loop and recompute under their own contexts, so one caller's
// cancellation never poisons the key for everyone else.
func (c *cache) do(ctx context.Context, key Key, compute func() (string, error)) (val string, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.stats.hits.Add(1)
			metCacheHits.Inc()
			return el.Value.(*entry).val, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					c.stats.coalesced.Add(1)
					metCacheCoalesced.Inc()
					return f.val, true, nil
				}
				// The computing caller failed or was cancelled and
				// removed the flight; try again as the computer.
				continue
			case <-ctx.Done():
				return "", false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		// A durable result from a previous process counts as a hit: the
		// computation is avoided, only the disk read is paid.
		if c.load != nil {
			if val, ok := c.load(key); ok {
				f.val = val
				c.mu.Lock()
				delete(c.inflight, key)
				c.insertLocked(key, val)
				c.mu.Unlock()
				close(f.done)
				c.stats.diskHits.Add(1)
				metCacheDiskHits.Inc()
				return val, true, nil
			}
		}

		c.stats.misses.Add(1)
		metCacheMisses.Inc()
		f.val, f.err = compute()

		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

// insertLocked records a completed result and evicts beyond the bound.
func (c *cache) insertLocked(key Key, val string) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry{key: key, val: val})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.evictions.Add(1)
		metCacheEvictions.Inc()
	}
}

// put records a completed result directly — the cache-warming path.
func (c *cache) put(key Key, val string) {
	c.mu.Lock()
	c.insertLocked(key, val)
	c.mu.Unlock()
}

// len reports the number of completed entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
