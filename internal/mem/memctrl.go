package mem

import "fmt"

// MemCtrl models main memory: a single controller with fixed access latency
// and a cycles-per-request bandwidth limit. L2 banks enqueue fill requests
// and receive a memFill in their input queue when the data is available.
type MemCtrl struct {
	latency   uint64
	perReq    uint64 // minimum cycles between request starts
	nextStart uint64 // earliest cycle the next request may start service

	queue    fifo[memReq]
	inflight fifo[memReq] // served, waiting for latency to elapse; sorted by readyAt
	wake     func()

	// Stats.
	Requests uint64
	MaxQueue int
}

type memReq struct {
	line    uint64
	readyAt uint64
	bank    *L2Bank
}

// NewMemCtrl builds a controller with the given access latency and
// bandwidth (one request per perReq cycles).
func NewMemCtrl(latency, perReq int) *MemCtrl {
	if perReq < 1 {
		perReq = 1
	}
	return &MemCtrl{latency: uint64(latency), perReq: uint64(perReq)}
}

// SetWaker installs the engine re-arm callback; Request invokes it so an
// idle controller resumes ticking when an L2 bank enqueues a fill.
func (m *MemCtrl) SetWaker(wake func()) { m.wake = wake }

// Request enqueues a line fill for bank, which is delivered a memFill when the
// line arrives, during a MemCtrl tick at least latency cycles later.
func (m *MemCtrl) Request(line uint64, bank *L2Bank) {
	m.Requests++
	m.queue.push(memReq{line: line, bank: bank})
	if m.queue.len() > m.MaxQueue {
		m.MaxQueue = m.queue.len()
	}
	if m.wake != nil {
		m.wake()
	}
}

// Tick starts at most one queued request per perReq cycles and completes
// any in-flight requests whose latency has elapsed. It reports whether any
// request remains queued or in flight.
func (m *MemCtrl) Tick(cycle uint64) bool {
	// Complete in order; inflight is sorted by readyAt because service
	// starts are monotonic, so the first request not yet due ends the scan.
	for m.inflight.len() > 0 && m.inflight.front().readyAt <= cycle {
		r := m.inflight.pop()
		r.bank.Deliver(&Msg{Kind: memFill, Addr: r.line})
	}

	if m.queue.len() > 0 && cycle >= m.nextStart {
		r := m.queue.pop()
		r.readyAt = cycle + m.latency
		m.inflight.push(r)
		m.nextStart = cycle + m.perReq
	}
	return m.queue.len() > 0 || m.inflight.len() > 0
}

// Pending reports queued plus in-flight requests (for quiescence checks).
func (m *MemCtrl) Pending() int { return m.queue.len() + m.inflight.len() }

// NextEvent implements the engine's skip-ahead extension: the earliest
// cycle after now at which the controller can start a queued request or
// complete an in-flight one. inflight is sorted by readyAt (service starts
// are monotonic), so its head is the earliest completion.
func (m *MemCtrl) NextEvent(now uint64) uint64 {
	next := noEvent
	if m.inflight.len() > 0 {
		next = m.inflight.front().readyAt
	}
	if m.queue.len() > 0 {
		start := m.nextStart
		if start < now+1 {
			start = now + 1
		}
		if start < next {
			next = start
		}
	}
	if next != noEvent && next <= now {
		return now + 1
	}
	return next
}

// Diagnose describes pending requests for engine deadlock dumps.
func (m *MemCtrl) Diagnose() string {
	return fmt.Sprintf("queued=%d inflight=%d served=%d", m.queue.len(), m.inflight.len(), m.Requests)
}
