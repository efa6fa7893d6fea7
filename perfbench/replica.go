package main

import (
	"sync"
	"time"

	"ssmdvfs/internal/serve"
)

// runReplica is the replica-observed workload: one replica with every
// observability sink armed, driven closed loop by two connections sending
// 64-row keyed frames back to back over the 384 keys — what one shard
// sees from a router's two dispatch slots carrying coalesced batches.
func runReplica(b *bench) error {
	s, setupS, err := medianSetup(setupRepeats, func() (*system, error) {
		s, err := startSystem(b, 1, false, true)
		if err != nil {
			return nil, err
		}
		s.warmup(b, s.shardFrame)
		return s, nil
	}, func(s *system) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()

	// Per connection: every frame's round trip, decisions answered per
	// segment, and the traced frames in full. Only traced frames keep a
	// frameResult, so the run's own bookkeeping stays small next to the
	// replica it measures.
	rtts := make([][]sample, numConns)
	segOK := make([][4]int64, numConns)
	traced := make([][]frameResult, numConns)
	mem := startMem()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < numConns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := s.clients[k]
			smp := sampler(b, k)
			var reqs []serve.Request
			var rows []int32
			for f := warmupFrames; ; f++ {
				reqs, rows = s.shardFrame(k, f, reqs, rows)
				fr := frameResult{sent: time.Now()}
				at := fr.sent.Sub(start)
				if at >= b.seconds {
					return
				}
				fr.segment = segmentOf(start, b.seconds, fr.sent)
				var decs []serve.Decision
				var err error
				if smp != nil && fr.segment%2 == 1 {
					tc := smp.Next()
					fr.traced = tc.Sampled()
					decs, fr.hops, err = cl.DecideKeyedTraced(reqs, tc)
				} else {
					decs, err = cl.DecideKeyed(reqs)
				}
				fr.recv = time.Now()
				ok, failed := s.account(b, &mu, k, rows, decs, err)
				mu.Lock()
				b.attempted += int64(len(rows))
				b.failed += int64(failed)
				mu.Unlock()
				rtts[k] = append(rtts[k], sample{at, us(fr.recv.Sub(fr.sent))})
				segOK[k][fr.segment] += int64(ok)
				if fr.traced {
					traced[k] = append(traced[k], fr)
				}
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	allocB, pauseMs := mem.end()
	s.checkAccounting(b, true)

	var rtt []sample
	var seg [4]int64
	var self, inf []float64
	for k := range rtts {
		rtt = append(rtt, rtts[k]...)
		for i := range seg {
			seg[i] += segOK[k][i]
		}
		for _, fr := range traced[k] {
			inf = append(inf, float64(fr.hops.InferUs))
			self = append(self, us(fr.recv.Sub(fr.sent))-float64(fr.hops.InferUs))
			hopSpans(b.spans, b.spans.newTrace(), 0, fr.sent, fr.recv, fr.hops, false)
		}
	}
	good := seg[0] + seg[1] + seg[2] + seg[3]
	if !b.trace {
		b.set("latency_p50_us", windowedQuantile(rtt, 0.50))
		logTail(rtt)
		b.set("throughput", float64(good)/elapsed.Seconds())
		b.set("setup_s", setupS)
		b.set("ok_ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		return nil
	}
	b.hopQuantiles("transport.self_us", self)
	b.hopQuantiles("replica.infer_us", inf)
	b.set("runtime.alloc_bytes_per_decision", allocB/float64(b.attempted))
	b.set("runtime.gc_pause_ms", pauseMs)
	// Throughput is the primary metric here: the ratio is untraced over
	// traced decisions per segment, so above 1 means tracing cost.
	if t := seg[1] + seg[3]; t > 0 {
		b.set("trace.overhead_ratio", float64(seg[0]+seg[2])/float64(t))
	}
	return replayLayers(b, s.in.model, s.in.pool(), nil)
}
