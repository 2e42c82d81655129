package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridauth/internal/obs"
)

// CacheKey is the canonical digest a decision is cached under: a
// SHA-256 over every request field a PDP may consult. Two requests with
// equal keys are indistinguishable to every side-effect-free PDP in
// this system, so they must receive the same decision (within a policy
// epoch).
type CacheKey [sha256.Size]byte

// DecisionCacheKey computes the cache key for a request dispatched to a
// callout type. The digest covers the callout type, the subject, the
// action, the job owner, the requested account, the CANONICAL job
// description (which subsumes the jobtag attribute) and the signatures
// of every presented assertion (a signature uniquely identifies the
// assertion's content, so VO attribute sets and CAS-embedded policies
// are covered without re-serializing them).
//
// The job contact (Request.JobID) is deliberately excluded: no policy
// construct in the paper's language — nor any PDP in this repository —
// can reference it, and excluding it lets repeated management requests
// against different jobs with the same owner and description share an
// entry. Request.Time is likewise excluded; time sensitivity (assertion
// and use-condition validity windows) is bounded by the cache TTL.
func DecisionCacheKey(calloutType string, req *Request) CacheKey {
	// Assembled into one buffer and hashed in a single pass: this runs on
	// every cached dispatch, so it must not dominate the hit latency.
	buf := make([]byte, 0, 256)
	buf = appendField(buf, calloutType)
	buf = appendField(buf, string(req.Subject))
	buf = appendField(buf, req.Action)
	buf = appendField(buf, string(req.JobOwner))
	buf = appendField(buf, req.Account)
	if req.Spec != nil {
		buf = appendField(buf, req.Spec.Unparse())
	} else {
		buf = appendField(buf, "")
	}
	buf = appendField(buf, strconv.Itoa(len(req.Assertions)))
	for _, a := range req.Assertions {
		buf = appendField(buf, a.VO)
		buf = appendField(buf, string(a.Holder))
		buf = append(buf, a.Signature...)
	}
	return sha256.Sum256(buf)
}

// appendField appends a length-prefixed field so adjacent fields cannot
// alias ("ab"+"c" vs "a"+"bc").
func appendField(buf []byte, s string) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	buf = append(buf, n[:]...)
	return append(buf, s...)
}

// MaxCacheTTL is the hard ceiling on decision-cache entry lifetime.
// The cache key deliberately excludes Request.Time, so time-dependent
// validity — assertion NotAfter, Akenti use-condition and
// attribute-certificate windows — is only re-checked when an entry
// expires, and no OnChange event fires when a credential merely ages
// out. The cap bounds that staleness window regardless of
// configuration: NewDecisionCache clamps larger TTLs, and the
// config-file path rejects them outright.
const MaxCacheTTL = time.Minute

// cacheShardCount is the shard count of every cache the registry
// builds; no measurement backs another value.
const cacheShardCount = 16

// CacheConfig sizes a DecisionCache.
type CacheConfig struct {
	// TTL bounds how long an entry may be served (default 5s, clamped to
	// MaxCacheTTL). The TTL also bounds the staleness window for
	// time-dependent validity (assertion expiry), which the cache key
	// does not capture.
	TTL time.Duration
	// Shards is the number of independently locked shards, rounded up
	// to a power of two. Registry-built caches always take the default
	// (cacheShardCount); the field is the seam tests use to force
	// collisions onto few shards.
	Shards int
	// MaxEntriesPerShard caps shard growth (default 4096); when full,
	// expired and stale-epoch entries are swept, then arbitrary entries
	// evicted.
	MaxEntriesPerShard int
	// Clock is the time source (nil means time.Now).
	Clock func() time.Time
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
}

// DecisionCache memoizes authorization decisions. It is sharded for
// concurrent access, TTL-bounded, and epoch-guarded: Invalidate bumps
// the epoch, instantly orphaning every existing entry, so a policy
// mutation anywhere (plaintext policy update, VO membership change,
// Akenti certificate store change) can guarantee that no stale permit
// is ever served — the very next request re-evaluates.
//
// Only Permit and Deny decisions are cached. Errors (authorization
// system failures) are transient by definition and NotApplicable never
// escapes a combined chain.
type DecisionCache struct {
	ttl    time.Duration
	max    int
	now    func() time.Time
	epoch  atomic.Uint64
	shards []cacheShard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[CacheKey]cacheEntry
}

type cacheEntry struct {
	d       Decision
	epoch   uint64
	expires time.Time
}

// NewDecisionCache builds a cache from a config (zero values take the
// documented defaults).
func NewDecisionCache(cfg CacheConfig) *DecisionCache {
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Second
	}
	if cfg.TTL > MaxCacheTTL {
		cfg.TTL = MaxCacheTTL
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cacheShardCount
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	if cfg.MaxEntriesPerShard <= 0 {
		cfg.MaxEntriesPerShard = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &DecisionCache{
		ttl:    cfg.TTL,
		max:    cfg.MaxEntriesPerShard,
		now:    cfg.Clock,
		shards: make([]cacheShard, shards),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[CacheKey]cacheEntry)
	}
	return c
}

// TTL returns the cache's entry lifetime.
func (c *DecisionCache) TTL() time.Duration { return c.ttl }

// ShardCount returns the number of shards.
func (c *DecisionCache) ShardCount() int { return len(c.shards) }

func (c *DecisionCache) shard(key CacheKey) *cacheShard {
	// The key is a cryptographic digest; any 8 bytes are uniformly
	// distributed.
	return &c.shards[binary.LittleEndian.Uint64(key[:8])&uint64(len(c.shards)-1)]
}

// Get returns the cached decision for key, if a live one exists. The
// current epoch is loaded inside the shard lock, after the entry is
// found, so an Invalidate that completes before the lookup is always
// honoured.
func (c *DecisionCache) Get(key CacheKey) (Decision, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && (e.epoch != c.epoch.Load() || c.now().After(e.expires)) {
		delete(s.entries, key)
		ok = false
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Decision{}, false
	}
	c.hits.Add(1)
	return e.d, true
}

// Put stores a decision under key. epoch must be the cache epoch
// observed BEFORE the decision was computed (Epoch()): if the policy
// changed while the evaluation ran, the decision reflects the old
// policy, and storing it under the post-change epoch would serve it as
// fresh for up to the TTL. Put therefore drops the entry when the
// epoch has moved on; in the residual race (the bump lands after the
// check) the entry is stored under the captured, now-stale epoch, so
// Get rejects it anyway. Error and NotApplicable decisions are not
// cached.
func (c *DecisionCache) Put(key CacheKey, d Decision, epoch uint64) {
	if d.Effect != Permit && d.Effect != Deny {
		return
	}
	now := c.now()
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != c.epoch.Load() {
		return
	}
	if len(s.entries) >= c.max {
		c.sweepLocked(s, epoch, now)
	}
	s.entries[key] = cacheEntry{d: d, epoch: epoch, expires: now.Add(c.ttl)}
}

// sweepLocked drops dead entries; if the shard is still full, arbitrary
// entries go (map iteration order serves as cheap random eviction).
func (c *DecisionCache) sweepLocked(s *cacheShard, epoch uint64, now time.Time) {
	for k, e := range s.entries {
		if e.epoch != epoch || now.After(e.expires) {
			delete(s.entries, k)
		}
	}
	for k := range s.entries {
		if len(s.entries) < c.max {
			break
		}
		delete(s.entries, k)
	}
}

// Invalidate bumps the policy epoch: every existing entry becomes
// unservable immediately. This is the hook policy mutation points call
// (directly or through Registry.InvalidateCaches) so a policy change is
// visible on the very next authorization request.
func (c *DecisionCache) Invalidate() {
	c.epoch.Add(1)
	c.invalidations.Add(1)
}

// Epoch returns the current policy epoch (diagnostics).
func (c *DecisionCache) Epoch() uint64 { return c.epoch.Load() }

// Len returns the number of resident entries (including not-yet-swept
// dead ones).
func (c *DecisionCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *DecisionCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
	}
}

// CachedPDP wraps a PDP (typically a whole combined chain) with a
// DecisionCache under a fixed key scope (the callout type).
//
// Correctness requires the wrapped chain to be side-effect free: a PDP
// that reserves allocation or leases accounts on permit must not sit
// behind a cache, because a hit would skip the side effect. Registry
// enforces this for every chain it builds (Bind, SetCalloutOptions and
// LoadConfig refuse the combination).
type CachedPDP struct {
	// Inner is the decision point whose results are memoized.
	Inner PDP
	// Cache holds the memoized decisions.
	Cache *DecisionCache
	// Scope is mixed into every key; use the callout type so distinct
	// callout chains sharing a cache cannot collide.
	Scope string
	// Metrics, when set, receives cache hit/miss counts (the
	// DecisionCache keeps its own per-cache stats regardless).
	Metrics *obs.Metrics
}

var _ PDP = (*CachedPDP)(nil)

// Name implements PDP.
func (p *CachedPDP) Name() string { return "cached(" + p.Inner.Name() + ")" }

// Authorize implements PDP. The epoch is captured before the inner
// chain runs: if a policy mutation fires Invalidate during evaluation
// (remote PDPs make this window wide), the decision was computed
// against the old policy and Put discards it rather than publishing it
// under the new epoch.
//
//authlint:ignore pdpcap the only mutation on the authorize path is the cache fill, which is replay-safe by construction (epoch-checked Put); declaring EffectfulPDP would wrongly bar effect-free chains from fan-out
func (p *CachedPDP) Authorize(ctx context.Context, req *Request) Decision {
	key := DecisionCacheKey(p.Scope, req)
	if d, ok := p.Cache.Get(key); ok {
		if p.Metrics != nil {
			p.Metrics.CacheHits.Inc()
		}
		// On a hit no PDP runs, so the whole decision path is one
		// cache-hit span naming the wrapper.
		if tr := obs.TraceFrom(ctx); tr != nil {
			tr.Record(obs.Span{
				PDP:      p.Name(),
				Effect:   d.Effect.String(),
				Source:   d.Source,
				CacheHit: true,
			})
		}
		return d
	}
	if p.Metrics != nil {
		p.Metrics.CacheMisses.Inc()
	}
	epoch := p.Cache.Epoch()
	d := p.Inner.Authorize(ctx, req)
	p.Cache.Put(key, d, epoch)
	return d
}
