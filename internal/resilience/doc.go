// Package resilience provides the generic, stdlib-only self-protection
// primitives the long-running service layer (internal/service) and the
// cluster front door (internal/cluster) are built from:
//
//   - Backoff: exponential backoff schedules with full jitter, fed by
//     an injectable rand.Source so delay sequences are deterministic
//     under the checkpoint package's counting RNG;
//   - Budget: a shared retry token bucket replenished by successes,
//     which stops failover storms from amplifying an outage;
//   - Breaker: a three-state circuit breaker (closed → open →
//     half-open) driven by explicit success/failure reports — the
//     service keys one breaker per ensemble arm off the accuracy
//     masking signal of internal/core;
//   - Queue: a bounded FIFO admission queue that sheds the newest
//     arrival when full (the clients being told "come back later" are
//     the ones that just showed up, not the ones already waiting) and
//     reports its depth through a gauge hook.
//
// Nothing in this package knows about simulations, prefetchers or
// telemetry: every type is a plain concurrency-safe building block
// with injectable clocks and RNGs, so the state machines are
// testable without wall-clock time.
package resilience
