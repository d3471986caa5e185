package resilience

import "sync"

// Budget is a shared retry token bucket in the gRPC style: each retry
// spends one token, each success refunds Ratio tokens (capped at
// Capacity). When many callers fail at once the bucket drains and
// further retries are denied, so a dependency outage costs one attempt
// per request instead of one per candidate — the retry layer stops
// amplifying the very overload it is reacting to. The cluster front
// door spends it on failover attempts. A nil *Budget allows every
// retry.
type Budget struct {
	// Capacity is the maximum token balance (default 10).
	Capacity float64
	// Ratio is the fraction of a token refunded per success
	// (default 0.1: ten successes buy one retry).
	Ratio float64

	mu     sync.Mutex
	tokens float64
	init   bool
}

func (b *Budget) defaults() (cap, ratio float64) {
	cap, ratio = b.Capacity, b.Ratio
	if cap <= 0 {
		cap = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	return cap, ratio
}

// Spend consumes one retry token, reporting whether the retry may
// proceed. Nil receivers always allow.
func (b *Budget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cap, _ := b.defaults()
	if !b.init {
		b.tokens = cap
		b.init = true
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Refund credits one success. Nil receivers no-op.
func (b *Budget) Refund() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cap, ratio := b.defaults()
	if !b.init {
		b.tokens = cap
		b.init = true
	}
	b.tokens += ratio
	if b.tokens > cap {
		b.tokens = cap
	}
}

// Tokens returns the current balance (Capacity for an untouched
// budget, 0 for nil).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cap, _ := b.defaults()
	if !b.init {
		return cap
	}
	return b.tokens
}
