package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// resultCache is the content-addressed result store: cache key (a
// gsi.CacheKey hex digest) -> the exact serialized Report bytes of the
// run. Entries are immutable once written — determinism means a key has
// exactly one correct value — so hits can hand out the stored slice
// without copying. The cache lives in memory; when a directory is
// configured, every entry is also a <key>.json file there.
//
// Persistence is one durable write per result: put writes <key>.json
// through a temp file in the same directory, fsyncs it and renames it into
// place before returning, so a kill -9 loses at most the simulations that
// were still in flight and never leaves a torn result. At construction the
// *.json files are loaded and any *.tmp a crash left mid-write is removed.
//
// The in-memory set is bounded: maxEntries and maxBytes (0 = unlimited)
// cap it with LRU eviction — get and put refresh an entry's recency, and
// put evicts from the cold end until both limits hold. Evicting is always
// sound (a future request for the key re-simulates and recomputes the
// identical bytes), and with a cache directory it loses nothing: the
// evicted entry's file is already on disk.
type resultCache struct {
	dir        string
	maxEntries int
	maxBytes   int

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry
	bytes   int
	evicted uint64

	// traces holds per-key trace artifacts (Chrome trace-event JSON) for
	// submissions that opted in. Artifacts live outside the LRU bounds —
	// they are written through to <dir>/<key>.trace immediately (the
	// ".trace" suffix keeps the boot glob from loading them as results)
	// and the in-memory copy is dropped when the key's result is evicted;
	// getTrace falls back to disk, so bounding memory never loses an
	// artifact that reached a configured directory. Unlike results they
	// are written best effort: a trace is an observability extra, and a
	// crash losing one loses nothing a re-run with tracing cannot recreate.
	traces map[string][]byte

	loaded      int    // entries read from the cache directory at boot
	persistErrs uint64 // failed result writes (the entry still serves from memory)
	persistErr  error  // the first of them, reported by Drain
}

// cacheEntry is one LRU node's payload.
type cacheEntry struct {
	key  string
	data []byte
}

// cacheStats is the cache's observability snapshot for /metrics.
type cacheStats struct {
	entries     int
	bytes       int
	evictions   uint64
	loaded      int
	persistErrs uint64
}

// newResultCache builds the cache, loading any persisted entries from
// dir (which is created if missing). An empty dir disables persistence;
// maxEntries/maxBytes of 0 disable the corresponding bound. Loaded
// entries count against the bounds (oldest names evict first — disk
// files are kept, only the in-memory copy is dropped).
func newResultCache(dir string, maxEntries, maxBytes int) (*resultCache, error) {
	c := &resultCache{
		dir:        dir,
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    map[string]*list.Element{},
		traces:     map[string][]byte{},
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	temps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	for _, name := range temps {
		if err := os.Remove(name); err != nil {
			return nil, fmt.Errorf("serve: removing interrupted cache write: %w", err)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("serve: loading cache entry: %w", err)
		}
		c.insert(strings.TrimSuffix(filepath.Base(name), ".json"), data)
		c.loaded++
		c.evict()
	}
	return c, nil
}

// get returns the stored bytes for key, refreshing its recency.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// put stores the bytes for key; a pre-existing entry wins (it is
// necessarily identical, and keeping it makes put idempotent under the
// rare leader/raced-completion overlap). With a cache directory the entry
// is durably on disk before put returns; a failed write is counted and
// the entry still serves from memory. Over-limit cold entries are evicted
// afterwards.
func (c *resultCache) put(key string, data []byte) {
	var err error
	if c.dir != "" {
		err = writeDurable(filepath.Join(c.dir, key+".json"), data)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.persistErrs++
		if c.persistErr == nil {
			c.persistErr = fmt.Errorf("serve: persisting cache entry: %w", err)
		}
	}
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.insert(key, data)
	c.evict()
}

// writeDurable replaces path with data so that a crash at any point
// leaves either the old state or the whole new file: the bytes go to a
// temp file in the same directory, are fsynced, and are renamed into
// place. A leftover *.tmp is removed at the next boot.
func writeDurable(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// insert adds a fresh entry at the hot end. Caller holds mu (or owns the
// cache exclusively, during construction).
func (c *resultCache) insert(key string, data []byte) {
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
	c.bytes += len(data)
}

// evict drops cold entries until both bounds hold. Caller holds mu (or
// owns the cache exclusively).
func (c *resultCache) evict() {
	over := func() bool {
		if c.maxEntries > 0 && len(c.entries) > c.maxEntries {
			return true
		}
		return c.maxBytes > 0 && c.bytes > c.maxBytes
	}
	for over() {
		el := c.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		delete(c.entries, e.key)
		delete(c.traces, e.key) // the write-through file, if any, remains
		c.lru.Remove(el)
		c.bytes -= len(e.data)
		c.evicted++
	}
}

// putTrace stores a trace artifact for key, writing it through to the
// cache directory at once (best effort — the in-memory copy still
// serves). First write wins, like put: a key's trace is as deterministic
// as its result, event for event.
func (c *resultCache) putTrace(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.traces[key]; ok {
		return
	}
	c.traces[key] = data
	if c.dir != "" {
		_ = os.WriteFile(filepath.Join(c.dir, key+".trace"), data, 0o644)
	}
}

// getTrace returns the trace artifact for key, falling back to the cache
// directory when the in-memory copy was dropped with its evicted result
// (or belongs to a previous process).
func (c *resultCache) getTrace(key string) ([]byte, bool) {
	c.mu.Lock()
	data, ok := c.traces[key]
	dir := c.dir
	c.mu.Unlock()
	if ok {
		return data, true
	}
	if dir == "" || strings.ContainsAny(key, "/\\") {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(dir, key+".trace"))
	if err != nil {
		return nil, false
	}
	return data, true
}

// stats snapshots the cache's entry count, byte footprint, lifetime
// eviction count, boot load count and persistence failures for /metrics.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{entries: len(c.entries), bytes: c.bytes,
		evictions: c.evicted, loaded: c.loaded, persistErrs: c.persistErrs}
}

// err returns the first failed result write, if any.
func (c *resultCache) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.persistErr
}
