package serve

// Per-client token-bucket admission control.  Every client (the
// X-SCG-Client header, falling back to the remote host) owns a bucket
// holding up to Burst route tokens refilled at Rate tokens per
// second; a request costs one token per rank pair.  A drained bucket
// rejects with the wait until enough tokens accrue, which the HTTP
// layer surfaces as 429 + Retry-After — so a greedy client exhausts
// only its own bucket and a polite one sails through (the isolation
// test pins this).
//
// The client map is bounded: once MaxClients distinct keys are
// tracked, unseen clients share one overflow bucket instead of
// growing the map, keeping a key-spraying client from turning the
// limiter into a memory leak.

import (
	"sync"
	"time"
)

// LimitConfig tunes the admission limiter.
type LimitConfig struct {
	// Rate is the sustained admission rate per client in route pairs
	// per second; 0 or negative disables admission control.
	Rate float64
	// Burst is the bucket capacity in pairs (default: one second of
	// Rate, at least 1).  A request costing more than Burst pairs can
	// never be admitted, so size Burst at or above the service's bulk
	// pair cap.
	Burst float64
	// MaxClients bounds the tracked-client map (default 4096); clients
	// beyond the bound share one overflow bucket.
	MaxClients int
}

func (c LimitConfig) withDefaults() LimitConfig {
	if c.Burst <= 0 {
		c.Burst = c.Rate
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 4096
	}
	return c
}

// bucket is one client's token store under the limiter lock.
type bucket struct {
	tokens float64
	last   time.Time
}

// Limiter is a per-client token-bucket admission controller.
type Limiter struct {
	cfg      LimitConfig
	mu       sync.Mutex
	clients  map[string]*bucket
	overflow bucket
}

// NewLimiter builds a limiter; a nil return means admission control
// is disabled (Rate ≤ 0) and every request passes.
func NewLimiter(cfg LimitConfig) *Limiter {
	if cfg.Rate <= 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Limiter{cfg: cfg, clients: make(map[string]*bucket)}
}

// Allow spends n tokens from client's bucket.  It returns (true, 0)
// on admission, or (false, wait) with the duration after which n
// tokens will have accrued.  A nil limiter admits everything.
func (l *Limiter) Allow(client string, n int) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	return l.allowAt(client, n, time.Now())
}

// allowAt is Allow on an explicit clock, for tests.
func (l *Limiter) allowAt(client string, n int, now time.Time) (bool, time.Duration) {
	need := float64(n)
	l.mu.Lock()
	defer l.mu.Unlock()
	bk, ok := l.clients[client]
	if !ok {
		if len(l.clients) >= l.cfg.MaxClients {
			bk = &l.overflow
			if bk.last.IsZero() {
				bk.tokens = l.cfg.Burst
				bk.last = now
			}
		} else {
			bk = &bucket{tokens: l.cfg.Burst, last: now}
			l.clients[client] = bk
		}
	}
	// Refill lazily; a clock that stands still or runs backwards
	// neither refills nor rewinds the bucket.
	if now.After(bk.last) {
		bk.tokens += now.Sub(bk.last).Seconds() * l.cfg.Rate
		if bk.tokens > l.cfg.Burst {
			bk.tokens = l.cfg.Burst
		}
		bk.last = now
	}
	if bk.tokens >= need {
		bk.tokens -= need
		return true, 0
	}
	missing := need - bk.tokens
	wait := time.Duration(missing / l.cfg.Rate * float64(time.Second))
	if wait < time.Nanosecond {
		wait = time.Nanosecond
	}
	return false, wait
}
