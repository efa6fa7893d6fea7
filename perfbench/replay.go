package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/infer"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// Replay timing: each layer is timed over replayReps rounds of about
// replayRound each (after one discarded warm-up round) and reports the
// median round.
const (
	replayReps  = 5
	replayRound = 30 * time.Millisecond
)

// pool returns the workload's generated rows in the order keys report
// them, the input every isolated replay of a serving run draws from.
func (in *inputs) pool() [][]float64 {
	out := make([][]float64, 0, numKeys*rowsPerKey)
	for e := 0; e < rowsPerKey; e++ {
		for k := range in.seq {
			out = append(out, in.rows[in.seq[k][e]])
		}
	}
	return out
}

// timeLoop calls fn(i) with i = 0, 1, 2, ... and returns the median over
// replayReps rounds of the nanoseconds per unit, where one call does
// units units of work.
func timeLoop(units int, fn func(i int)) float64 {
	per := make([]float64, 0, replayReps)
	i := 0
	for r := 0; r <= replayReps; r++ {
		start := time.Now()
		n := 0
		for {
			fn(i)
			i++
			n++
			if n%16 == 0 && time.Since(start) >= replayRound {
				break
			}
		}
		if r > 0 {
			per = append(per, float64(time.Since(start))/float64(n*units))
		}
	}
	return median(per)
}

// replay times one layer in isolation and records it as one span.
func (b *bench) replay(name string, units int, fn func(i int)) float64 {
	start := time.Now()
	ns := timeLoop(units, fn)
	b.spans.add(b.spans.newTrace(), 0, "replay."+name, start, time.Now(), "ns_per_unit", strconv.FormatFloat(ns, 'f', 1, 64))
	return ns
}

// replayLayers replays the layers that sit inside a server, on the
// workload's own rows: both inference backends, core.Inference, the
// serving engine with sinks off and on, each sink alone, and, given epoch
// statistics, counter derivation. Decisions the batch paths return must
// equal core.Inference's row-at-a-time answers bit for bit.
func replayLayers(b *bench, m *core.Model, rows [][]float64, stats []gpusim.EpochStats) error {
	if len(rows) < 64 {
		return fmt.Errorf("replay needs at least 64 rows, got %d", len(rows))
	}
	inf := core.NewInference(m)
	want := make([]answer, len(rows))
	for i, r := range rows {
		l, p := inf.Decide(r, preset)
		want[i] = answer{l, p}
	}
	batchAt := func(i, n int) int { return (i * n) % (len(rows) - n + 1) }

	// infer backends on standardized decision-head rows.
	nf := m.NumFeatures()
	raw := make([]float64, nf+1)
	std := make([]*nn.Batch, 0, 2)
	for _, n := range []int{8, 64} {
		x := &nn.Batch{}
		x.Reset(n*16, nf+1)
		for r := 0; r < n*16; r++ {
			counters.SelectInto(rows[r%len(rows)], m.FeatureIdx, raw)
			raw[nf] = preset
			m.DecisionScaler.TransformInto(raw, x.Row(r))
		}
		std = append(std, x)
	}
	for _, kind := range []infer.Kind{infer.KindFloat64, infer.KindInt8} {
		bk, err := infer.New(m.Decision, kind)
		if err != nil {
			b.warn("infer %s backend unavailable: %v", kind, err)
			continue
		}
		for j, n := range []int{8, 64} {
			var x nn.Batch
			var s infer.Scratch
			src := std[j]
			x.Reset(n, nf+1)
			ns := b.replay(fmt.Sprintf("infer.%s.b%d", kind, n), n, func(i int) {
				off := (i % 16) * n * (nf + 1)
				copy(x.Data, src.Data[off:off+n*(nf+1)])
				bk.ForwardBatch(&x, &s)
			})
			b.set(fmt.Sprintf("infer.ns_per_row.%s.b%d", kind, n), ns)
		}
	}

	// core.Inference, row at a time and batched.
	b.set("inference.ns_per_row.b1", b.replay("inference.b1", 1, func(i int) {
		inf.Decide(rows[i%len(rows)], preset)
	}))
	for _, n := range []int{24, 64} {
		n := n
		check := true
		b.set(fmt.Sprintf("inference.ns_per_row.b%d", n), b.replay(fmt.Sprintf("inference.b%d", n), n, func(i int) {
			at := batchAt(i, n)
			inf.BeginBatch(n)
			for k := 0; k < n; k++ {
				inf.SetBatchRow(k, rows[at+k], preset)
			}
			inf.DecideBatch()
			if check {
				check = false
				for k := 0; k < n; k++ {
					if inf.BatchLevel(k) != want[at+k].level || math.Float64bits(inf.BatchPredInstr(k)) != math.Float64bits(want[at+k].pred) {
						b.fail("core.Inference batch of %d disagrees with row-at-a-time on row %d", n, at+k)
					}
				}
			}
		}))
	}

	// serve.Engine with sinks off on fleet-shaped 24-row frames, and with
	// every sink armed on 64-row replica frames.
	for _, c := range []struct {
		name     string
		rows     int
		observed bool
	}{{"bare", numClusters, false}, {"observed", 64, true}} {
		e, err := serve.NewEngine(m, serve.Options{})
		if err != nil {
			return err
		}
		if c.observed {
			armSinks(e)
		}
		reqs := make([]serve.Request, len(rows))
		for i, r := range rows {
			k := i % numKeys
			reqs[i] = serve.Request{Preset: preset, Features: r, GPU: int32(k / numClusters), Cluster: int32(k % numClusters)}
		}
		var decs []serve.Decision
		n := c.rows
		b.set("engine.ns_per_row."+c.name, b.replay("engine."+c.name, n, func(i int) {
			at := batchAt(i, n)
			decs = e.DecideBatch(reqs[at:at+n], decs[:0])
			if i == 0 {
				for k, d := range decs {
					if d.Reason != provenance.ReasonModel || d.Level != want[at+k].level || math.Float64bits(d.PredInstr) != math.Float64bits(want[at+k].pred) {
						b.fail("serve.Engine (%s) disagrees with core.Inference on row %d", c.name, at+k)
					}
				}
			}
		}))
	}

	// Each sink alone, fed records built the way the engine builds them.
	recs := make([]provenance.Record, 256)
	for k := range recs {
		if k%64 == 0 {
			inf.BeginBatch(64)
			for j := 0; j < 64; j++ {
				inf.SetBatchRow(j, rows[(k+j)%len(rows)], preset)
			}
			inf.DecideBatch()
		}
		r := &recs[k]
		r.Cluster, r.Epoch = int32(k%numClusters), -1
		r.Level = int32(inf.BatchLevel(k % 64))
		r.Reason = provenance.ReasonModel
		r.Preset, r.EffPreset = preset, preset
		r.PredInstr = inf.BatchPredInstr(k % 64)
		r.SetRaw(rows[k%len(rows)])
		r.SetDerived(inf.BatchDerived(k % 64)[:nf])
		r.SetLogits(inf.BatchLogits(k % 64))
	}
	rec := provenance.NewRecorder(4096)
	b.set("provenance.record_ns", b.replay("provenance.record", 1, func(i int) { rec.Record(&recs[i%len(recs)]) }))
	mon := provenance.NewMonitor(telemetry.NewRegistry(), provenance.MonitorOptions{})
	names, mean, sd := m.TrainingStats()
	mon.SetTrainingStats(names, mean, sd)
	b.set("provenance.monitor_ns", b.replay("provenance.monitor", 1, func(i int) { mon.ObserveRecord(&recs[i%len(recs)]) }))
	led := ledger.New(ledger.Options{})
	b.set("ledger.observe_ns", b.replay("ledger.observe", 1, func(i int) {
		r := &recs[i%len(recs)]
		led.Observe(r.Cluster, 0, int(r.Level), rows[i%len(recs)%len(rows)], preset)
	}))

	if len(stats) > 0 {
		b.set("counters.fromstats_ns", b.replay("counters.fromstats", 1, func(i int) {
			counters.FromStats(stats[i%len(stats)])
		}))
	}
	return nil
}
