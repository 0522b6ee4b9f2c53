package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCacheLRUEntryBound covers the maxEntries bound: the cold end
// evicts, get/put refresh recency, and the eviction counter advances.
func TestCacheLRUEntryBound(t *testing.T) {
	c, err := newResultCache("", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	// Touch k0 so k1 is now the coldest entry.
	if _, ok := c.get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.put("k3", []byte{3})
	if _, ok := c.get("k1"); ok {
		t.Error("k1 survived eviction despite being coldest")
	}
	for _, key := range []string{"k0", "k2", "k3"} {
		if _, ok := c.get(key); !ok {
			t.Errorf("%s evicted, want kept", key)
		}
	}
	st := c.stats()
	if st.entries != 3 || st.evictions != 1 {
		t.Errorf("stats = %+v, want 3 entries / 1 eviction", st)
	}
}

// TestCacheLRUByteBound covers the maxBytes bound, including a single
// put evicting multiple cold entries to make room.
func TestCacheLRUByteBound(t *testing.T) {
	c, err := newResultCache("", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("k%d", i), make([]byte, 25))
	}
	if st := c.stats(); st.bytes != 100 || st.evictions != 0 {
		t.Fatalf("stats = %+v, want 100 bytes / 0 evictions", st)
	}
	c.put("big", make([]byte, 60)) // needs k0..k2 gone
	st := c.stats()
	if st.bytes > 100 {
		t.Errorf("byte bound violated: %d > 100", st.bytes)
	}
	if st.evictions != 3 {
		t.Errorf("evictions = %d, want 3", st.evictions)
	}
	if _, ok := c.get("k3"); !ok {
		t.Error("k3 evicted, want kept (hottest small entry)")
	}
	if _, ok := c.get("big"); !ok {
		t.Error("big entry missing after its own put")
	}
}

// TestCacheEvictionPersistsDirty: evicting a never-flushed entry writes
// it to the cache directory first, so the memory bound does not lose
// persistence — a fresh cache over the same directory serves the entry.
func TestCacheEvictionPersistsDirty(t *testing.T) {
	dir := t.TempDir()
	c, err := newResultCache(dir, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.put("aaaa", []byte("first"))
	c.put("bbbb", []byte("second")) // evicts dirty aaaa -> disk
	if _, err := os.Stat(filepath.Join(dir, "aaaa.json")); err != nil {
		t.Fatalf("evicted dirty entry not written to disk: %v", err)
	}
	reloaded, err := newResultCache(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := reloaded.get("aaaa"); !ok || string(data) != "first" {
		t.Errorf("reloaded cache: get(aaaa) = %q, %v; want the evicted bytes", data, ok)
	}
}

// TestServeMetricsPrometheus checks the text exposition endpoint: the
// versioned content type, counter/gauge families, and the cumulative
// histogram with its +Inf terminator and matching _count.
func TestServeMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	doc := submit(t, ts, smallSweep("prom"))
	wait(t, ts, doc.ID)

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE gsi_jobs_queued gauge",
		"# TYPE gsi_simulations_total counter",
		"gsi_simulations_total 4",
		"gsi_jobs_done_total 4",
		"# TYPE gsi_sim_ns_per_cycle histogram",
		`gsi_sim_ns_per_cycle_bucket{le="+Inf"} 4`,
		"gsi_sim_ns_per_cycle_count 4",
		"gsi_sim_ns_per_cycle_sum ",
		"gsi_cache_evictions_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}
}
