package gpusim

import "testing"

func testMemConfig() Config {
	c := SmallConfig()
	return c
}

// bookedLines counts the line transfers booked on the DRAM channels since
// m was built, for requests issued less than one line-service slot after
// time 0: each channel is then busy from l2LatencyPs for whole slots.
func bookedLines(m *memSystem) int64 {
	var n int64
	for _, free := range m.chanFreePs {
		if free > 0 {
			n += (free - m.l2LatencyPs) / m.lineServicePs
		}
	}
	return n
}

func TestMemReadMissGoesToDRAM(t *testing.T) {
	m := newMemSystem(testMemConfig())
	now := int64(1000)
	done, l2Hit, dram := m.readLine(0x10000, now)
	if l2Hit {
		t.Fatal("cold L2 must miss")
	}
	if !dram {
		t.Fatal("L2 miss must reach DRAM")
	}
	want := now + m.l2LatencyPs + m.lineServicePs + m.dramLatencyPs
	if done != want {
		t.Fatalf("completion %d, want %d", done, want)
	}
	if got := bookedLines(m); got != 1 {
		t.Fatalf("%d DRAM line transfers booked, want 1", got)
	}
}

func TestMemReadHitAfterFill(t *testing.T) {
	m := newMemSystem(testMemConfig())
	m.readLine(0x10000, 0) // fills L2
	done, l2Hit, dram := m.readLine(0x10000, 1_000_000)
	if !l2Hit || dram {
		t.Fatalf("second read l2Hit=%v dram=%v, want hit without DRAM", l2Hit, dram)
	}
	if done != 1_000_000+m.l2LatencyPs {
		t.Fatalf("hit completion %d, want %d", done, 1_000_000+m.l2LatencyPs)
	}
}

func TestMemBandwidthQueueing(t *testing.T) {
	m := newMemSystem(testMemConfig())
	nchan := len(m.chanFreePs)
	// Two misses to lines on the same channel at the same instant: the
	// second must wait a full line-service slot behind the first.
	a := uint64(0)
	b := a + uint64(nchan)*64 // same channel, different line and set
	d1, _, _ := m.readLine(a, 0)
	d2, _, _ := m.readLine(b, 0)
	if d2-d1 != m.lineServicePs {
		t.Fatalf("second miss finished %d ps after first, want %d", d2-d1, m.lineServicePs)
	}
}

func TestMemChannelsParallel(t *testing.T) {
	m := newMemSystem(testMemConfig())
	// Misses on different channels at the same instant do not queue.
	d1, _, _ := m.readLine(0, 0)
	d2, _, _ := m.readLine(64, 0) // next line → next channel
	if d1 != d2 {
		t.Fatalf("different channels should complete together: %d vs %d", d1, d2)
	}
}

func TestMemWriteThrough(t *testing.T) {
	m := newMemSystem(testMemConfig())
	done, l2Hit, dram := m.writeLine(0x2000, 0)
	if l2Hit || !dram {
		t.Fatalf("cold write l2Hit=%v dram=%v", l2Hit, dram)
	}
	if got := bookedLines(m); got != 1 {
		t.Fatalf("%d DRAM line transfers booked, want 1", got)
	}
	// Write-allocate: the following read hits L2.
	_, l2Hit, _ = m.readLine(0x2000, done)
	if !l2Hit {
		t.Fatal("write-allocated line must hit on read")
	}
}

func TestMemCloneIndependence(t *testing.T) {
	m := newMemSystem(testMemConfig())
	m.readLine(0x3000, 0)
	cp := m.clone()
	cp.readLine(0x9000, 0)
	if m.l2.contains(0x9000) {
		t.Fatal("clone read leaked into original L2")
	}
	if orig, clone := bookedLines(m), bookedLines(cp); orig != 1 || clone != 2 {
		t.Fatalf("DRAM line transfers original=%d clone=%d, want 1/2", orig, clone)
	}
}
