package mem

import "testing"

// fills pops the memFills the controller has posted to bank's input queue and
// returns their lines in arrival order.
func fills(t *testing.T, bank *L2Bank) []uint64 {
	t.Helper()
	var lines []uint64
	for bank.inQ.len() > 0 {
		m := bank.inQ.pop()
		if m.Kind != memFill {
			t.Fatalf("memory controller posted a %s", m.Kind)
		}
		lines = append(lines, m.Addr)
	}
	return lines
}

func TestMemCtrlLatency(t *testing.T) {
	mc := NewMemCtrl(10, 1)
	var doneAt uint64 = 0
	var fired bool
	var bank L2Bank
	mc.Request(0x40, &bank)
	for c := uint64(0); c < 20 && !fired; c++ {
		mc.Tick(c)
		doneAt = c
		got := fills(t, &bank)
		fired = len(got) == 1 && got[0] == 0x40
	}
	if !fired {
		t.Fatal("request never completed")
	}
	if doneAt < 10 {
		t.Fatalf("completed at %d, want >= 10", doneAt)
	}
	if mc.Pending() != 0 {
		t.Fatalf("pending = %d", mc.Pending())
	}
}

func TestMemCtrlBandwidth(t *testing.T) {
	// perReq=4: service starts are at least 4 cycles apart, so the
	// completions of back-to-back requests are too.
	mc := NewMemCtrl(10, 4)
	var times []uint64
	var bank L2Bank
	for i := 0; i < 4; i++ {
		mc.Request(uint64(i*64), &bank)
	}
	for c := uint64(0); c < 100 && mc.Pending() > 0; c++ {
		before := mc.Pending()
		mc.Tick(c)
		for i := 0; i < before-mc.Pending(); i++ {
			times = append(times, c)
		}
	}
	if len(times) != 4 {
		t.Fatalf("completions = %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < 4 {
			t.Fatalf("completions %d apart, want >= 4: %v", times[i]-times[i-1], times)
		}
	}
	if mc.Requests != 4 || mc.MaxQueue < 3 {
		t.Fatalf("stats: requests=%d maxqueue=%d", mc.Requests, mc.MaxQueue)
	}
}

func TestMemCtrlZeroBandwidthClamped(t *testing.T) {
	mc := NewMemCtrl(1, 0)
	var bank L2Bank
	mc.Request(0, &bank)
	for c := uint64(0); c < 10; c++ {
		mc.Tick(c)
	}
	if len(fills(t, &bank)) != 1 {
		t.Fatal("clamped controller never completed")
	}
}
