package serve

import (
	"context"
	"sync"
)

// flightCall is one in-flight simulation that concurrent requesters of
// the same cache key share. waiters counts every job still interested in
// the outcome; when the last one detaches (its own context fired) the
// flight's context is canceled so the simulation stops doing work nobody
// wants.
type flightCall struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int
	cancel  context.CancelFunc
	// simulating: fn is between simStart and simEnd with a waiter still
	// attached, i.e. this flight is counted in the group's running gauge.
	simulating bool
}

// flightGroup is a context-aware singleflight: Do collapses concurrent
// calls with the same key onto one execution of fn, so overlapping sweep
// submissions never simulate the same grid point twice at the same time.
//
// Cancellation is per waiter, not per flight: fn runs under a context
// derived from the group root (not from any one caller), and each caller
// whose ctx fires merely detaches. Deleting sweep A therefore never kills
// a run sweep B is also waiting on; only when every waiter is gone does
// the flight's context cancel and the engine unwind at its next
// cooperative check.
type flightGroup struct {
	// root parents every flight's context; canceling it (server
	// shutdown) stops all in-flight simulations.
	root context.Context

	// gauge counts the simulations running on behalf of at least one
	// waiting job (/metrics "running"); only flight functions that call
	// simStart need it. It moves under mu, at the same instant a flight's
	// waiter count does, so a job that detaches last is never seen both as
	// finished and as still being simulated.
	gauge *metrics

	mu sync.Mutex
	m  map[string]*flightCall
}

// simStart is called by key's flight function when its simulation begins;
// simEnd when it returns. A flight everybody already left is not counted.
func (g *flightGroup) simStart(key string) {
	g.mu.Lock()
	if c := g.m[key]; c != nil && c.waiters > 0 {
		c.simulating = true
		g.gauge.runStart()
	}
	g.mu.Unlock()
}

func (g *flightGroup) simEnd(key string) {
	g.mu.Lock()
	g.uncount(g.m[key])
	g.mu.Unlock()
}

// uncount takes c out of the running gauge if it is in it. Caller holds mu.
func (g *flightGroup) uncount(c *flightCall) {
	if c != nil && c.simulating {
		c.simulating = false
		g.gauge.runEnd()
	}
}

// Do runs fn once per key at a time. The first caller (the leader) starts
// fn on its own goroutine; every caller — leader included — waits for
// either the result (shared reports whether another caller led the run)
// or its own ctx, whichever comes first. A caller whose ctx fires gets
// ctx.Err() and detaches; the flight keeps running for the remaining
// waiters.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(ctx context.Context) ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	root := g.root
	if root == nil {
		root = context.Background()
	}
	c, found := g.m[key]
	if !found {
		fctx, cancel := context.WithCancel(root)
		c = &flightCall{done: make(chan struct{}), cancel: cancel}
		g.m[key] = c
		go func() {
			c.val, c.err = fn(fctx)
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
	}
	c.waiters++
	g.mu.Unlock()

	select {
	case <-c.done:
		g.mu.Lock()
		c.waiters--
		g.mu.Unlock()
		return c.val, c.err, found
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			// Nobody is listening any more: stop the simulation, and stop
			// counting it now — it unwinds at its next cancellation check,
			// after this caller's job has been finished as canceled.
			g.uncount(c)
			c.cancel()
		}
		g.mu.Unlock()
		return nil, ctx.Err(), false
	}
}
