package serve

import (
	"math/rand"
	"testing"
	"time"

	"ssmdvfs/internal/telemetry"
)

// TestObserveHotPathAllocationFree guards the acceptance criterion that
// re-hosting Metrics on the telemetry registry kept the serving hot path
// allocation-free: per-batch and per-decision recording must be pure
// atomics on pre-resolved handles.
func TestObserveHotPathAllocationFree(t *testing.T) {
	m := newMetrics(telemetry.NewRegistry())
	allocs := testing.AllocsPerRun(1000, func() {
		m.ObserveBatch(24, 37*time.Microsecond)
		m.ObserveLevel(3)
		m.Conns.Add(1)
		m.Conns.Add(-1)
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f times per batch, want 0", allocs)
	}
}

func BenchmarkObserveBatch(b *testing.B) {
	m := newMetrics(telemetry.NewRegistry())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.ObserveBatch(24, time.Duration(i%1000)*time.Microsecond)
		m.ObserveLevel(i % 6)
	}
}

// TestSnapshotShapeUnchanged pins the pre-telemetry /metrics JSON shape:
// 20 latency buckets, level counts capped at the requested model levels,
// and quantiles consistent with the buckets.
func TestSnapshotShapeUnchanged(t *testing.T) {
	m := newMetrics(telemetry.NewRegistry())
	m.ObserveBatch(2, 3*time.Microsecond) // bucket [2,4) µs
	m.ObserveLevel(1)
	m.ObserveLevel(1)
	m.Errors.Add(1)

	snap := m.Snapshot(6)
	if len(snap.LatencyBucketsUs) != histBuckets {
		t.Fatalf("latency buckets = %d, want %d", len(snap.LatencyBucketsUs), histBuckets)
	}
	if len(snap.LevelCounts) != 6 {
		t.Fatalf("level counts = %d, want 6", len(snap.LevelCounts))
	}
	if snap.Decisions != 2 || snap.Batches != 1 || snap.Errors != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.LevelCounts[1] != 2 {
		t.Fatalf("level 1 count = %d, want 2", snap.LevelCounts[1])
	}
	if snap.LatencyBucketsUs[2] != 1 {
		t.Fatalf("3µs batch not in bucket 2: %v", snap.LatencyBucketsUs)
	}
	if snap.LatencyP50Us < 2 || snap.LatencyP50Us > 4 {
		t.Fatalf("p50 = %g, want within [2,4)", snap.LatencyP50Us)
	}
	// The registry view carries the same numbers.
	reg := m.Registry().Snapshot()
	if reg.Counters["serve_decisions_total"] != 2 {
		t.Fatalf("registry decisions = %d", reg.Counters["serve_decisions_total"])
	}
	if reg.Counters[`serve_level_decisions_total{level="1"}`] != 2 {
		t.Fatal("per-level counter missing from registry")
	}
}

// TestEngineCountsCoalescedFrame: a multi-row frame reaches the batched
// kernel in one call, and the kernel counters and batch-rows histogram
// say so.
func TestEngineCountsCoalescedFrame(t *testing.T) {
	srv, err := NewServer(testModel(t, 20), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	rows := make([]Request, 8)
	for i := range rows {
		rows[i] = Request{Preset: 0.1, Features: featureRow(rng)}
	}
	if decs := srv.DecideBatch(rows, nil); len(decs) != len(rows) {
		t.Fatalf("got %d decisions, want %d", len(decs), len(rows))
	}
	snap := srv.Metrics().Snapshot(srv.Model().Levels)
	if snap.InferRows != int64(len(rows)) || snap.InferBatches != 1 {
		t.Fatalf("kernel saw %d rows in %d calls, want %d in 1 (the whole frame in one ForwardBatch)",
			snap.InferRows, snap.InferBatches, len(rows))
	}
	// 8 rows in one call lands in bucket [8,16) = index 4; everything
	// below must be empty or the frame decayed to row-at-a-time.
	if len(snap.InferBatchRows) == 0 || snap.InferBatchRows[4] != 1 {
		t.Fatalf("batch-rows histogram %v, want one call in bucket 4", snap.InferBatchRows)
	}
	if got := srv.Telemetry().Snapshot().Counters["serve_infer_rows_total"]; got != int64(len(rows)) {
		t.Fatalf("serve_infer_rows_total = %d, want %d", got, len(rows))
	}
}
