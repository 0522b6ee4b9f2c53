package mem

import "gsi/internal/noc"

// outbox defers mesh sends until a component's access latency has elapsed,
// preserving injection order among messages that become due the same cycle.
type outbox struct {
	mesh *noc.Mesh[Msg]
	from int // tile index
	q    []outMsg
	next uint64 // earliest due time in q; tick is a no-op before it
}

type outMsg struct {
	at   uint64
	dst  int32
	port noc.Port
	m    Msg
}

// send queues a copy of m for injection at cycle at.
func (o *outbox) send(at uint64, dst int, port noc.Port, m *Msg) {
	if len(o.q) == 0 || at < o.next {
		o.next = at
	}
	o.q = append(o.q, outMsg{at: at, dst: int32(dst), port: port, m: *m})
}

// tick injects every due message into the mesh. Nothing can be due before
// next, so the scan is skipped entirely until then.
func (o *outbox) tick(cycle uint64) {
	if len(o.q) == 0 || cycle < o.next {
		return
	}
	n := 0
	var nextDue uint64
	for i := range o.q {
		m := &o.q[i]
		if m.at <= cycle {
			o.mesh.Send(cycle, o.from, int(m.dst), m.port, m.m)
			continue
		}
		if n == 0 || m.at < nextDue {
			nextDue = m.at
		}
		if n != i {
			o.q[n] = *m
		}
		n++
	}
	o.q = o.q[:n]
	o.next = nextDue
}

func (o *outbox) pending() int { return len(o.q) }

// nextDue returns the earliest due time among queued messages, or
// sim.NoEvent when the outbox is empty. After a tick at cycle c every
// remaining message is due strictly after c, so the value bounds a
// skip-ahead jump exactly.
func (o *outbox) nextDue() uint64 {
	if len(o.q) == 0 {
		return noEvent
	}
	return o.next
}

// noEvent mirrors sim.NoEvent without importing the package into this
// low-level helper.
const noEvent = ^uint64(0)
