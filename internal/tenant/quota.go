package tenant

import (
	"math"
	"sync"
	"time"
)

// Quota is one tenant's admission budget: a token bucket refilling at
// Rate jobs/second up to Burst tokens. The zero value disables
// admission control (every submission is admitted).
type Quota struct {
	// Rate is the sustained submission rate in jobs per second;
	// 0 or negative disables the quota.
	Rate float64 `json:"rate"`
	// Burst is the bucket size — how many submissions a tenant may
	// make back-to-back after a quiet period. 0 means ceil(Rate),
	// but at least 1.
	Burst int `json:"burst"`
}

// Enabled reports whether this quota limits anything.
func (q Quota) Enabled() bool { return q.Rate > 0 }

// burst resolves the effective bucket size.
func (q Quota) burst() float64 {
	if q.Burst > 0 {
		return float64(q.Burst)
	}
	return math.Max(1, math.Ceil(q.Rate))
}

// bucket is one tenant's live token state.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter applies per-tenant token-bucket admission control. The zero
// value is not usable; call NewLimiter.
type Limiter struct {
	q   Quota
	now func() time.Time // injectable clock for tests

	mu      sync.Mutex
	buckets map[string]*bucket
}

// maxIdleBuckets bounds the bucket table; full buckets are pruned
// beyond it. A pruned bucket recreates as full, which is exactly the
// state a long-idle tenant's bucket would have refilled to.
const maxIdleBuckets = 4096

// NewLimiter builds a Limiter that gives every tenant its own bucket
// of quota q. A nil result means admission control is off (q is not
// enabled), letting callers skip the check cheaply.
func NewLimiter(q Quota) *Limiter {
	if !q.Enabled() {
		return nil
	}
	return &Limiter{q: q, now: time.Now, buckets: make(map[string]*bucket)}
}

// Allow spends one token from tenant id's bucket. When the bucket is
// empty it reports false plus how long the tenant must wait for its
// next token — a per-tenant Retry-After derived from that tenant's own
// spending, not anyone else's.
func (l *Limiter) Allow(id string) (retryAfter time.Duration, ok bool) {
	if l == nil {
		return 0, true
	}
	q := l.q
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, exists := l.buckets[id]
	if !exists {
		if len(l.buckets) >= maxIdleBuckets {
			l.pruneLocked(now)
		}
		b = &bucket{tokens: q.burst(), last: now}
		l.buckets[id] = b
	} else {
		dt := now.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens = math.Min(q.burst(), b.tokens+dt*q.Rate)
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / q.Rate
	return time.Duration(need * float64(time.Second)), false
}

// pruneLocked drops buckets that have refilled to their full burst —
// tenants idle long enough that forgetting them changes nothing.
func (l *Limiter) pruneLocked(now time.Time) {
	q := l.q
	for id, b := range l.buckets {
		tokens := math.Min(q.burst(), b.tokens+now.Sub(b.last).Seconds()*q.Rate)
		if tokens >= q.burst() {
			delete(l.buckets, id)
		}
	}
}
