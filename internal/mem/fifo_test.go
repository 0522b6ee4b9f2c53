package mem

import "testing"

// TestFifoRing: values come out in the order they went in across
// wrap-arounds and growths, the buffer stops growing once it fits the
// deepest backlog, and a popped slot keeps no reference to its value.
func TestFifoRing(t *testing.T) {
	var q fifo[*int]
	pushed, popped := 0, 0
	vals := make([]int, 1000)
	push := func(n int) {
		for ; n > 0; n-- {
			vals[pushed] = pushed
			q.push(&vals[pushed])
			pushed++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if f := *q.front(); *f != popped {
				t.Fatalf("front = %d, want %d", *f, popped)
			}
			if v := q.pop(); *v != popped {
				t.Fatalf("pop = %d, want %d", *v, popped)
			}
			popped++
		}
	}
	for lap := 0; lap < 6; lap++ { // wraps the first 4-slot ring
		push(3)
		pop(3)
	}
	if len(q.buf) != 4 {
		t.Fatalf("ring grew to %d slots for a backlog of 3", len(q.buf))
	}
	push(3)
	pop(1)
	push(5) // 7 queued with the head mid-ring: growth unwraps
	pop(7)
	for lap := 0; lap < 50; lap++ {
		push(8)
		pop(8)
	}
	if len(q.buf) != 8 || q.len() != 0 {
		t.Fatalf("ring has %d slots and %d queued after draining a backlog of 8", len(q.buf), q.len())
	}
	for i, v := range q.buf {
		if v != nil {
			t.Fatalf("vacated slot %d still holds a value", i)
		}
	}
}

// TestMemCtrlCompletesInOrderAtLatency: a burst of requests from two banks
// completes one per perReq cycles, in request order, each exactly latency
// cycles after its service started and in the input queue of the bank that
// asked, and the controller reports idle the cycle the last one completes.
func TestMemCtrlCompletesInOrderAtLatency(t *testing.T) {
	const latency, perReq, n = 20, 3, 12
	mc := NewMemCtrl(latency, perReq)
	var got []uint64
	var at []uint64
	var banks [2]L2Bank
	for i := 0; i < n; i++ {
		mc.Request(uint64(i), &banks[i%2])
	}
	for now := uint64(0); now < 200; now++ {
		busy := mc.Tick(now)
		if busy != (mc.Pending() > 0) {
			t.Fatalf("cycle %d: Tick busy=%v with %d pending", now, busy, mc.Pending())
		}
		for b := range banks {
			for _, line := range fills(t, &banks[b]) {
				if int(line)%2 != b {
					t.Fatalf("line %d filled bank %d, asked for by bank %d", line, b, line%2)
				}
				got = append(got, line)
				at = append(at, now)
			}
		}
	}
	if len(got) != n {
		t.Fatalf("%d of %d requests completed", len(got), n)
	}
	for i := range got {
		if want := uint64(i*perReq + latency); got[i] != uint64(i) || at[i] != want {
			t.Fatalf("completion %d: line %d at cycle %d, want line %d at %d", i, got[i], at[i], i, want)
		}
	}
}
