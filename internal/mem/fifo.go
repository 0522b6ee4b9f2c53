package mem

// fifo is a first-in-first-out queue of values on a power-of-two ring,
// allocated on first use and grown by doubling. Popping advances a head
// index instead of re-slicing, so a queue that fills and drains for a whole
// run keeps reusing one buffer.
type fifo[T any] struct {
	buf  []T // len is zero or a power of two
	head int // slot of the oldest value
	n    int // values queued
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(4, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// front returns the oldest value; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// pop removes and returns the oldest value; the queue must not be empty. The
// vacated slot is zeroed so the ring does not keep the value reachable.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
