// Command gsi-serve runs the sweep service: a long-running HTTP/JSON
// server that accepts sweep submissions (cartesian grids in the public
// Grid/Axes vocabulary), executes them on a shared bounded worker pool,
// and serves results through a content-addressed cache — identical grid
// points across overlapping submissions are answered from cache,
// byte-identical to a fresh run.
//
// Examples:
//
//	gsi-serve -addr :8080 -parallel 8 -cache-dir /var/cache/gsi
//
//	curl -X POST localhost:8080/sweeps -d '{
//	  "name": "mshr",
//	  "workloads": ["implicit"],
//	  "localMems": ["scratchpad", "stash"],
//	  "mshrSizes": [32, 64]
//	}'
//	curl 'localhost:8080/sweeps/s1?wait=1'
//	curl -X DELETE localhost:8080/sweeps/s1
//	curl localhost:8080/metrics
//
// Failures stay inside their grid point: a panicking or deadline-blown
// job fails individually (surfaced on /sweeps/{id} and the SSE stream)
// while its siblings complete, completed results are journaled to
// -cache-dir as they finish (a kill -9 loses at most in-flight work),
// and on SIGINT/SIGTERM the server drains gracefully: new submissions
// are refused with 503 (and /readyz flips), running jobs get
// -drain-grace to finish before being canceled cooperatively, the cache
// is flushed, and only then does the listener shut down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gsi"
	"gsi/internal/faultinject"
	"gsi/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		parallel   = flag.Int("parallel", 0, "simulation pool size shared across submissions (0 = all cores)")
		engine     = flag.String("engine", "skip", "scheduling engine: dense | quiescent | skip (results are byte-identical; this is a wall-clock knob)")
		cacheDir   = flag.String("cache-dir", "", "persist the result cache in this directory (journaled as results complete, flushed on drain)")
		maxEnt     = flag.Int("cache-max-entries", 0, "bound the in-memory result cache to this many entries, LRU-evicted (0 = unlimited)")
		maxBytes   = flag.Int("cache-max-bytes", 0, "bound the in-memory result cache to this many bytes of result documents, LRU-evicted (0 = unlimited)")
		jobTimeout = flag.Duration("job-timeout", 10*time.Minute, "default wall-clock deadline per job; a slower simulation fails with a deadline error carrying the engine diagnosis (0 = none)")
		jobTimeMax = flag.Duration("job-timeout-max", 30*time.Minute, "cap on the per-job deadline, including per-submission overrides (0 = no cap)")
		retries    = flag.Int("retries", 0, "retry budget per job for transient failures — contained panics and I/O errors (0 = default of 2, negative = disabled)")
		drainGrace = flag.Duration("drain-grace", 2*time.Minute, "how long a drain lets running jobs finish before canceling them cooperatively (0 = wait forever)")
		timeout    = flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for the HTTP listener to close after jobs drain")
		chaos      = flag.String("chaos", "", "fault-injection spec for testing, e.g. 'seed=1,panic=0.1' or 'uts:stall' (do not use in production)")
	)
	flag.Parse()
	mode, err := gsi.ParseEngineMode(*engine)
	if err != nil {
		fail("%v", err)
	}
	var injector *faultinject.Injector
	if *chaos != "" {
		if injector, err = faultinject.Parse(*chaos); err != nil {
			fail("%v", err)
		}
		log.Printf("gsi-serve: CHAOS MODE: injecting faults per %q", *chaos)
	}
	server, err := serve.New(serve.Config{
		Workers:         *parallel,
		Engine:          mode,
		CacheDir:        *cacheDir,
		CacheMaxEntries: *maxEnt,
		CacheMaxBytes:   *maxBytes,
		JobTimeout:      *jobTimeout,
		MaxJobTimeout:   *jobTimeMax,
		Retries:         *retries,
		Chaos:           injector,
	})
	if err != nil {
		fail("%v", err)
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: server.Handler(),
		// Slow-client bounds. Long-lived responses (SSE, ?wait=1 long
		// polls) lift the write deadline per handler; everything else is
		// cut off rather than pinning a connection forever.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("gsi-serve: listening on %s (pool=%d, engine=%s)", *addr, *parallel, *engine)

	select {
	case err := <-errc:
		fail("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("gsi-serve: draining (refusing new sweeps, grace %v for running jobs)", *drainGrace)
	graceCtx := context.Background()
	if *drainGrace > 0 {
		var cancel context.CancelFunc
		graceCtx, cancel = context.WithTimeout(graceCtx, *drainGrace)
		defer cancel()
	}
	if err := server.DrainContext(graceCtx); err != nil {
		log.Printf("gsi-serve: cache flush: %v", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("gsi-serve: shutdown: %v", err)
	}
	log.Printf("gsi-serve: drained")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsi-serve: "+format+"\n", args...)
	os.Exit(1)
}
