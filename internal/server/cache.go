// Package server turns the sweep harness into a long-running HTTP service:
// it accepts sweep requests as JSON, expands and validates them with the
// experiment machinery, executes cells on the bounded worker pool, and
// memoizes every completed cell in a content-keyed result cache so a
// repeated or overlapping grid is served without re-simulating.
//
// The cache key is the pair (sweep fingerprint, cell key). The cell key is
// already content-derived (workload/engine/policy/seed) and the simulator
// is deterministic, so two requests that agree on the fingerprint — the
// phase lengths, machine configuration, and result schema — must produce
// bit-identical results for a shared cell. That makes cache hits
// indistinguishable from re-execution, byte for byte.
package server

import (
	"container/list"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"smtfetch"
	"smtfetch/internal/config"
	"smtfetch/internal/experiment"
)

// Fingerprint hashes everything besides the cell identity that determines
// a cell's result: the simulation phase lengths (WarmupInstrs and
// WarmupCycles are explicit fields — a sweep with a different warm-up can
// never be served another warm-up's cells), the sampling spec, the
// warm-fork mode (it changes seed derivation), the machine configuration
// (with the engine/policy fields zeroed — the cell key carries those), and
// the result schema version. Sweeps with equal fingerprints may share
// cached cells.
func Fingerprint(s *experiment.Sweep) string {
	mc := config.Default()
	if s.Machine != nil {
		mc = *s.Machine
	}
	// Engine and policy vary per cell and are overwritten by the runner;
	// canonicalize them out so they cannot split the cache.
	mc.Engine = 0
	mc.FetchPolicy = config.FetchPolicy{}
	// Hash the sampling spec's canonical spelling so equivalent spellings
	// (reordered keys, spaces, leading zeros) share one key. An invalid
	// spec keeps its raw string: Prepare rejects it before any cell runs.
	sample := s.Sample
	if sp, err := smtfetch.ParseSample(s.Sample); err == nil {
		sample = sp.String()
	}
	blob, err := json.Marshal(struct {
		ResultSchema  int
		WarmupInstrs  uint64
		WarmupCycles  uint64
		MeasureInstrs uint64
		MaxCycles     uint64
		Sample        string
		WarmFork      string
		Machine       config.Config
	}{experiment.SchemaVersion, s.WarmupInstrs, s.WarmupCycles, s.MeasureInstrs, s.MaxCycles, sample, s.WarmFork, mc})
	if err != nil {
		// config.Config is a plain struct of scalars; this cannot fail.
		panic(fmt.Sprintf("server: fingerprint marshal: %v", err))
	}
	h := fnv.New64a()
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheKey is the full content key of one cached cell.
func CacheKey(fingerprint string, c experiment.Cell) string {
	return fingerprint + "/" + c.Key()
}

// CacheStats is the counter snapshot served by GET /cache/stats. The
// snapshot_* counters cover the warm-checkpoint artifact tier; the rest
// cover the result tier.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`

	SnapshotEntries   int    `json:"snapshot_entries"`
	SnapshotCapacity  int    `json:"snapshot_capacity"`
	SnapshotHits      uint64 `json:"snapshot_hits"`
	SnapshotMisses    uint64 `json:"snapshot_misses"`
	SnapshotStores    uint64 `json:"snapshot_stores"`
	SnapshotEvictions uint64 `json:"snapshot_evictions"`
}

// DefaultSnapshotCapacity bounds the snapshot tier when the owner does not
// call SetSnapshotCapacity. Snapshot blobs are megabytes, not bytes, so
// the bound is far below the result tier's.
const DefaultSnapshotCapacity = 64

// Cache is a bounded two-tier LRU, safe for concurrent use. The result
// tier holds completed sweep cells keyed by CacheKey(fingerprint, cell);
// the snapshot tier holds warm-checkpoint blobs (core.Sim.Snapshot
// artifacts) keyed by experiment warm keys, letting repeated sweeps skip
// the warm-up phase entirely in warm-fork mode.
type Cache struct {
	results   *lru[experiment.Result]
	snapshots *lru[[]byte]
}

// NewCache returns an empty cache bounded to capacity result entries
// (minimum 1) and DefaultSnapshotCapacity snapshot entries.
func NewCache(capacity int) *Cache {
	return &Cache{
		results:   newLRU[experiment.Result](capacity),
		snapshots: newLRU[[]byte](DefaultSnapshotCapacity),
	}
}

// SetSnapshotCapacity rebounds the snapshot tier (minimum 1), evicting
// immediately if the tier is over the new bound.
func (c *Cache) SetSnapshotCapacity(n int) { c.snapshots.setCapacity(n) }

// GetSnapshot returns the cached warm-checkpoint blob for key, marking it
// most recently used. Callers must not mutate the returned blob.
func (c *Cache) GetSnapshot(key string) ([]byte, bool) { return c.snapshots.get(key, true) }

// PutSnapshot stores a warm-checkpoint blob under key, evicting the least
// recently used snapshot when the tier is full.
func (c *Cache) PutSnapshot(key string, blob []byte) { c.snapshots.put(key, blob, true) }

// Get returns the cached result for key, marking it most recently used.
func (c *Cache) Get(key string) (experiment.Result, bool) { return c.results.get(key, true) }

// Put stores a result under key, evicting the least recently used entry
// when full. Storing an existing key refreshes its value and recency.
func (c *Cache) Put(key string, r experiment.Result) { c.results.put(key, r, true) }

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	n, _, _ := c.results.stats()
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	n, capacity, r := c.results.stats()
	sn, scapacity, s := c.snapshots.stats()
	return CacheStats{
		Entries:   n,
		Capacity:  capacity,
		Hits:      r.hits,
		Misses:    r.misses,
		Stores:    r.stores,
		Evictions: r.evictions,

		SnapshotEntries:   sn,
		SnapshotCapacity:  scapacity,
		SnapshotHits:      s.hits,
		SnapshotMisses:    s.misses,
		SnapshotStores:    s.stores,
		SnapshotEvictions: s.evictions,
	}
}

// lru is one cache tier: a bounded map in least-recently-used order with
// its traffic counters, safe for concurrent use.
type lru[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // *lruEntry[V]; front = most recently used
	byKey    map[string]*list.Element
	counts   tierCounts
}

type tierCounts struct {
	hits, misses, stores, evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	t := &lru[V]{ll: list.New(), byKey: map[string]*list.Element{}}
	t.setCapacity(capacity)
	return t
}

// setCapacity rebounds the tier (minimum 1), evicting down to the bound.
func (t *lru[V]) setCapacity(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.capacity = max(n, 1)
	t.evict()
}

// get returns key's value, marking it most recently used. count=false
// leaves the hit and miss counters alone: only traffic counts.
func (t *lru[V]) get(key string, count bool) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byKey[key]
	if !ok {
		if count {
			t.counts.misses++
		}
		var zero V
		return zero, false
	}
	if count {
		t.counts.hits++
	}
	t.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key as the most recently used entry, evicting
// down to the bound. count=false (a file load) leaves stores alone.
func (t *lru[V]) put(key string, val V, count bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if count {
		t.counts.stores++
	}
	if el, ok := t.byKey[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		t.ll.MoveToFront(el)
		return
	}
	t.byKey[key] = t.ll.PushFront(&lruEntry[V]{key: key, val: val})
	t.evict()
}

// evict trims the tier to its bound; callers hold t.mu.
func (t *lru[V]) evict() {
	for t.ll.Len() > t.capacity {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.byKey, oldest.Value.(*lruEntry[V]).key)
		t.counts.evictions++
	}
}

func (t *lru[V]) stats() (entries, capacity int, counts tierCounts) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len(), t.capacity, t.counts
}

// oldestFirst lists the tier's entries from least to most recently used.
func (t *lru[V]) oldestFirst() []lruEntry[V] {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]lruEntry[V], 0, t.ll.Len())
	for el := t.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry[V]))
	}
	return out
}

// CacheSchemaVersion versions the on-disk cache snapshot. Version 2 adds
// the entry tier: "result" entries reuse the experiment.Result schema that
// WriteJSON emits (so a result round-trips the disk byte-identically), and
// "snapshot" entries carry base64 warm-checkpoint blobs under their warm
// key. Version 1 files (untiered, results only) still load.
const CacheSchemaVersion = 2

// cacheFile is the persistence envelope: one entry per cached artifact,
// per tier in LRU order (least recently used first) so a reload
// reconstructs recency.
type cacheFile struct {
	SchemaVersion int              `json:"schema_version"`
	Entries       []persistedEntry `json:"entries"`
}

// persistedEntry is one cached artifact. Tier selects which fields are
// meaningful: "result" (or empty, the version-1 spelling) uses
// Fingerprint+Result, "snapshot" uses Key+Blob. Unknown tiers are a load
// error — a file written by a future schema must fail loudly, not load as
// an empty-looking result.
type persistedEntry struct {
	Tier        string             `json:"tier,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Result      *experiment.Result `json:"result,omitempty"`
	Key         string             `json:"key,omitempty"`
	Blob        []byte             `json:"blob,omitempty"`
}

// Artifact tier names in persisted cache files.
const (
	TierResult   = "result"
	TierSnapshot = "snapshot"
)

// SaveFile atomically writes both cache tiers to path (tmp + rename).
func (c *Cache) SaveFile(path string) error {
	f := cacheFile{SchemaVersion: CacheSchemaVersion}
	for _, e := range c.results.oldestFirst() {
		// The key suffix is reconstructible from the result; only the
		// fingerprint prefix needs storing.
		fp := e.key[:len(e.key)-len(e.val.Key())-1]
		f.Entries = append(f.Entries, persistedEntry{Tier: TierResult, Fingerprint: fp, Result: &e.val})
	}
	for _, e := range c.snapshots.oldestFirst() {
		f.Entries = append(f.Entries, persistedEntry{Tier: TierSnapshot, Key: e.key, Blob: e.val})
	}

	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cache-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile merges a snapshot written by SaveFile into the cache, returning
// the number of entries loaded. A missing file is not an error (0, nil):
// a fresh server simply starts cold.
func (c *Cache) LoadFile(path string) (int, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var f cacheFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return 0, fmt.Errorf("server: bad cache file %s: %w", path, err)
	}
	// Version 1 is version 2 minus tiers: every entry is an implicit
	// result. Anything newer (or older) is rejected.
	if f.SchemaVersion != CacheSchemaVersion && f.SchemaVersion != 1 {
		return 0, fmt.Errorf("server: cache file %s has schema version %d, want %d", path, f.SchemaVersion, CacheSchemaVersion)
	}
	for i, e := range f.Entries {
		switch e.Tier {
		case "", TierResult:
			if e.Result == nil {
				return 0, fmt.Errorf("server: cache file %s entry %d: result tier without a result", path, i)
			}
			// Loads do not count as stores: stats reflect live traffic only.
			c.results.put(e.Fingerprint+"/"+e.Result.Key(), *e.Result, false)
		case TierSnapshot:
			if e.Key == "" {
				return 0, fmt.Errorf("server: cache file %s entry %d: snapshot tier without a key", path, i)
			}
			c.snapshots.put(e.Key, e.Blob, false)
		default:
			return 0, fmt.Errorf("server: cache file %s entry %d has unknown artifact tier %q (known: %q, %q); refusing to load a future schema partially", path, i, e.Tier, TierResult, TierSnapshot)
		}
	}
	return len(f.Entries), nil
}
