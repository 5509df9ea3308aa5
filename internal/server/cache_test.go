package server

import (
	"path/filepath"
	"strings"
	"testing"

	"smtfetch/internal/experiment"
)

func cacheRes(workload string, seed uint64, ipc float64) experiment.Result {
	return experiment.Result{
		Workload: workload, Engine: "stream", Policy: "ICOUNT.1.8", Seed: seed, IPC: ipc,
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	a, b, d := cacheRes("A", 1, 1.0), cacheRes("B", 1, 2.0), cacheRes("D", 1, 3.0)
	c.Put("fp/"+a.Key(), a)
	c.Put("fp/"+b.Key(), b)
	// Touch A so B is the LRU entry when D evicts.
	if _, ok := c.Get("fp/" + a.Key()); !ok {
		t.Fatal("A missing before eviction")
	}
	c.Put("fp/"+d.Key(), d)
	if _, ok := c.Get("fp/" + b.Key()); ok {
		t.Fatal("LRU entry B survived eviction")
	}
	if _, ok := c.Get("fp/" + a.Key()); !ok {
		t.Fatal("recently used A was evicted")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Stores != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheStatsCounters(t *testing.T) {
	c := NewCache(8)
	r := cacheRes("A", 1, 1.0)
	if _, ok := c.Get("fp/" + r.Key()); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("fp/"+r.Key(), r)
	if _, ok := c.Get("fp/" + r.Key()); !ok {
		t.Fatal("miss after store")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c := NewCache(8)
	a, b := cacheRes("A", 1, 1.5), cacheRes("B", 2, 2.5)
	c.Put("fpa/"+a.Key(), a)
	c.Put("fpb/"+b.Key(), b)
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	loaded := NewCache(8)
	n, err := loaded.LoadFile(path)
	if err != nil || n != 2 {
		t.Fatalf("LoadFile = %d, %v", n, err)
	}
	got, ok := loaded.Get("fpa/" + a.Key())
	if !ok || got != a {
		t.Fatalf("A after reload = %+v, %v", got, ok)
	}
	if _, ok := loaded.Get("fpb/" + b.Key()); !ok {
		t.Fatal("B missing after reload")
	}
	// Loads are not live traffic: only the two Gets above may count.
	st := loaded.Stats()
	if st.Stores != 0 || st.Hits != 2 {
		t.Fatalf("stats after reload = %+v", st)
	}
}

func TestCacheLoadPreservesRecency(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c := NewCache(8)
	a, b := cacheRes("A", 1, 1.0), cacheRes("B", 1, 2.0)
	c.Put("fp/"+a.Key(), a) // older
	c.Put("fp/"+b.Key(), b) // newer
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Reload into a capacity-2 cache and add a third entry: the entry
	// that was LRU at save time (A) must be the one evicted.
	loaded := NewCache(2)
	if _, err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	d := cacheRes("D", 1, 3.0)
	loaded.Put("fp/"+d.Key(), d)
	if _, ok := loaded.Get("fp/" + a.Key()); ok {
		t.Fatal("saved-as-LRU entry A survived eviction after reload")
	}
	if _, ok := loaded.Get("fp/" + b.Key()); !ok {
		t.Fatal("saved-as-MRU entry B was evicted after reload")
	}
}

func TestCacheLoadMissingFile(t *testing.T) {
	c := NewCache(2)
	n, err := c.LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if n != 0 || err != nil {
		t.Fatalf("missing file: %d, %v", n, err)
	}
}

func TestCacheLoadRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	writeFile(t, path, `{"schema_version": 999, "entries": []}`)
	if _, err := NewCache(2).LoadFile(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("bad schema accepted: %v", err)
	}
}

func TestFingerprintSeparatesPhaseLengths(t *testing.T) {
	base := &experiment.Sweep{Workloads: []string{"2_MIX"}}
	longer := &experiment.Sweep{Workloads: []string{"2_MIX"}, MeasureInstrs: 123}
	if Fingerprint(base) == Fingerprint(longer) {
		t.Fatal("different phase lengths share a fingerprint")
	}
	// The axes themselves don't split the cache: a sub-grid of the same
	// configuration must share cached cells with the full grid.
	subgrid := &experiment.Sweep{Workloads: []string{"2_MIX", "4_MIX"}}
	if Fingerprint(base) != Fingerprint(subgrid) {
		t.Fatal("axis-only difference split the fingerprint")
	}
}

func TestFingerprintWarmupCyclesMissesCache(t *testing.T) {
	// -warmup-cycles is an explicit, documented component of the result
	// cache key: a sweep that changes only it must miss every cell cached
	// under the old warm-up, never be served its results.
	base := &experiment.Sweep{Workloads: []string{"2_MIX"}, WarmupCycles: 0}
	warmed := &experiment.Sweep{Workloads: []string{"2_MIX"}, WarmupCycles: 5_000}
	if Fingerprint(base) == Fingerprint(warmed) {
		t.Fatal("different -warmup-cycles share a fingerprint")
	}
	c := NewCache(8)
	r := cacheRes("2_MIX", 1, 1.0)
	cell := r.Cell()
	c.Put(CacheKey(Fingerprint(base), cell), r)
	if _, ok := c.Get(CacheKey(Fingerprint(warmed), cell)); ok {
		t.Fatal("cell warmed without -warmup-cycles served to a sweep that set it")
	}
}

func TestFingerprintSeparatesSampleAndWarmFork(t *testing.T) {
	base := &experiment.Sweep{Workloads: []string{"2_MIX"}}
	sampled := &experiment.Sweep{Workloads: []string{"2_MIX"}, Sample: "detail:1000,skip:9000"}
	forked := &experiment.Sweep{Workloads: []string{"2_MIX"}, WarmFork: experiment.WarmForkFork}
	if Fingerprint(base) == Fingerprint(sampled) {
		t.Fatal("sampled sweep shares the full-detail fingerprint")
	}
	if Fingerprint(base) == Fingerprint(forked) {
		t.Fatal("warm-fork sweep shares the cold-warm fingerprint (seed derivation differs)")
	}
}

// Equivalent spellings of one sampling spec must share a fingerprint, or
// the cache re-simulates cells it already holds.
func TestFingerprintCanonicalizesSampleSpelling(t *testing.T) {
	fp := func(sample string) string {
		return Fingerprint(&experiment.Sweep{Workloads: []string{"2_MIX"}, Sample: sample})
	}
	want := fp("detail:1000,skip:19000")
	for _, spelling := range []string{
		"skip:19000,detail:1000",
		"detail:1000, skip:19000",
		"detail:01000,skip:19000",
	} {
		if got := fp(spelling); got != want {
			t.Errorf("Fingerprint(Sample %q) = %s, want %s (same spec as detail:1000,skip:19000)", spelling, got, want)
		}
	}
	if fp("detail:1000,skip:9000") == want {
		t.Error("different sampling specs share a fingerprint")
	}
	// An invalid spec is hashed raw rather than panicking.
	if fp("detail:x") == fp("detail:y") {
		t.Error("distinct invalid specs share a fingerprint")
	}
}

func TestCacheSnapshotTierLRUAndStats(t *testing.T) {
	c := NewCache(2)
	c.SetSnapshotCapacity(2)
	c.PutSnapshot("aaaa", []byte{1})
	c.PutSnapshot("bbbb", []byte{2})
	if _, ok := c.GetSnapshot("aaaa"); !ok {
		t.Fatal("snapshot aaaa missing")
	}
	c.PutSnapshot("cccc", []byte{3}) // evicts bbbb (LRU)
	if _, ok := c.GetSnapshot("bbbb"); ok {
		t.Fatal("LRU snapshot bbbb survived eviction")
	}
	if blob, ok := c.GetSnapshot("aaaa"); !ok || len(blob) != 1 || blob[0] != 1 {
		t.Fatalf("snapshot aaaa after eviction = %v, %v", blob, ok)
	}
	st := c.Stats()
	if st.SnapshotEntries != 2 || st.SnapshotStores != 3 || st.SnapshotEvictions != 1 {
		t.Fatalf("snapshot stats = %+v", st)
	}
	if st.SnapshotHits != 2 || st.SnapshotMisses != 1 {
		t.Fatalf("snapshot hit/miss = %+v", st)
	}
	// The tiers are independent: snapshot traffic must not leak into the
	// result counters and vice versa.
	if st.Entries != 0 || st.Stores != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("result stats moved on snapshot traffic: %+v", st)
	}
}

func TestCachePersistsBothTiers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c := NewCache(8)
	r := cacheRes("A", 1, 1.5)
	c.Put("fp/"+r.Key(), r)
	c.PutSnapshot("deadbeefdeadbeef", []byte{4, 5, 6})
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	loaded := NewCache(8)
	n, err := loaded.LoadFile(path)
	if err != nil || n != 2 {
		t.Fatalf("LoadFile = %d, %v", n, err)
	}
	if got, ok := loaded.Get("fp/" + r.Key()); !ok || got != r {
		t.Fatalf("result after reload = %+v, %v", got, ok)
	}
	blob, ok := loaded.GetSnapshot("deadbeefdeadbeef")
	if !ok || string(blob) != string([]byte{4, 5, 6}) {
		t.Fatalf("snapshot after reload = %v, %v", blob, ok)
	}
	// Loads are not live traffic on either tier.
	if st := loaded.Stats(); st.Stores != 0 || st.SnapshotStores != 0 {
		t.Fatalf("stats after reload = %+v", st)
	}
}

func TestCacheLoadAcceptsVersion1Files(t *testing.T) {
	// A version-1 file has untiered entries: every one is implicitly a
	// result. Servers upgraded across the schema bump keep their warm
	// result caches.
	path := filepath.Join(t.TempDir(), "cache.json")
	writeFile(t, path, `{
  "schema_version": 1,
  "entries": [
    {
      "fingerprint": "0011223344556677",
      "result": {"workload": "2_MIX", "engine": "stream", "policy": "ICOUNT.1.8", "seed": 1, "ipc": 2.5, "ipfc": 3.0, "cond_accuracy": 0.9}
    }
  ]
}`)
	c := NewCache(8)
	n, err := c.LoadFile(path)
	if err != nil || n != 1 {
		t.Fatalf("LoadFile = %d, %v", n, err)
	}
	got, ok := c.Get("0011223344556677/2_MIX/stream/ICOUNT.1.8/1")
	if !ok || got.IPC != 2.5 {
		t.Fatalf("v1 entry after load = %+v, %v", got, ok)
	}
}

func TestCacheLoadRejectsUnknownTier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	writeFile(t, path, `{
  "schema_version": 2,
  "entries": [
    {"tier": "hologram", "key": "feedfacefeedface", "blob": "AAEC"}
  ]
}`)
	_, err := NewCache(8).LoadFile(path)
	if err == nil {
		t.Fatal("unknown artifact tier accepted")
	}
	for _, want := range []string{"hologram", "result", "snapshot"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unknown-tier error %q does not mention %q", err, want)
		}
	}
}

func TestCacheLoadRejectsMalformedTierEntries(t *testing.T) {
	cases := map[string]string{
		"result without result": `{"schema_version": 2, "entries": [{"tier": "result", "fingerprint": "ff"}]}`,
		"snapshot without key":  `{"schema_version": 2, "entries": [{"tier": "snapshot", "blob": "AAEC"}]}`,
	}
	for name, content := range cases {
		path := filepath.Join(t.TempDir(), "cache.json")
		writeFile(t, path, content)
		if _, err := NewCache(8).LoadFile(path); err == nil {
			t.Fatalf("%s: malformed entry accepted", name)
		}
	}
}
