package main

import (
	"sync"
	"time"

	"ssmdvfs/internal/serve"
)

// runFleet is the fleet-epochs workload at one rate (frames/s): two
// replicas behind one router with default options, driven open loop by
// 16 GPUs' epoch reports over two connections. A frame is due on a fixed
// schedule whatever the replies do, and its latency runs from its due
// time to its last decision.
func runFleet(b *bench, rate int) error {
	s, setupS, err := medianSetup(setupRepeats, func() (*system, error) {
		s, err := startSystem(b, 2, true, false)
		if err != nil {
			return nil, err
		}
		s.warmup(b, func(conn, i int, reqs []serve.Request, rows []int32) ([]serve.Request, []int32) {
			return s.gpuFrame(conn*gpusPerConn+i%gpusPerConn, reqs, rows)
		})
		return s, nil
	}, func(s *system) { s.close() })
	if err != nil {
		return err
	}
	defer s.close()

	period := time.Second / time.Duration(rate)
	perConn := int(b.seconds / period / numConns)
	results := make([][]frameResult, numConns)
	rt := s.router
	dispatched0, batches0 := routerDispatched(rt), routerBatches(rt)
	shed0, rerouted0 := rt.Metrics().ShedTotal(), rt.Metrics().Rerouted.Load()
	mem := startMem()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for k := 0; k < numConns; k++ {
		results[k] = make([]frameResult, 0, perConn)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := s.clients[k]
			smp := sampler(b, k)
			var reqs []serve.Request
			var rows []int32
			free := start
			reqs, rows = s.gpuFrame(k*gpusPerConn, reqs, rows)
			for i := 0; i < perConn; i++ {
				// The two connections' frames interleave on one schedule.
				due := start.Add(time.Duration(i*numConns+k) * period)
				waitUntil(due)
				seg := segmentOf(start, b.seconds, due)
				fr := frameResult{due: due, sent: time.Now(), segment: seg}
				// The generator is late only by what it adds after the frame
				// is due and the connection is free; waiting for the previous
				// reply is the program's backlog and counts in latency.
				fr.ready = due
				if free.After(due) {
					fr.ready = free
				}
				var decs []serve.Decision
				var err error
				if smp != nil && seg%2 == 1 {
					tc := smp.Next()
					fr.traced = tc.Sampled()
					decs, fr.hops, err = cl.DecideKeyedTraced(reqs, tc)
				} else {
					decs, err = cl.DecideKeyed(reqs)
				}
				fr.recv = time.Now()
				free = fr.recv
				ok, failed := s.account(b, &mu, k, rows, decs, err)
				fr.ok = ok
				mu.Lock()
				b.attempted += int64(len(rows))
				b.failed += int64(failed)
				mu.Unlock()
				results[k] = append(results[k], fr)
				reqs, rows = s.gpuFrame(k*gpusPerConn+(i+1)%gpusPerConn, reqs, rows)
			}
		}(k)
	}
	wg.Wait()
	allocB, pauseMs := mem.end()
	scheduled := time.Duration(perConn*numConns) * period
	dispatched, batches := routerDispatched(rt)-dispatched0, routerBatches(rt)-batches0
	shed, rerouted := rt.Metrics().ShedTotal()-shed0, rt.Metrics().Rerouted.Load()-rerouted0
	s.checkAccounting(b, false)

	var lat, late []sample
	var segLat [4][]float64
	var good int64
	var q, c, d, inf, net, self []float64
	for _, rs := range results {
		for _, fr := range rs {
			l := us(fr.recv.Sub(fr.due))
			lat = append(lat, sample{fr.due.Sub(start), l})
			segLat[fr.segment] = append(segLat[fr.segment], l)
			late = append(late, sample{fr.due.Sub(start), us(fr.sent.Sub(fr.ready))})
			if fr.recv.Sub(fr.due) <= queueDeadline {
				good += int64(fr.ok)
			}
			if !fr.traced {
				continue
			}
			h := fr.hops
			rtt := us(fr.recv.Sub(fr.sent))
			q = append(q, float64(h.QueueUs))
			c = append(c, float64(h.CoalesceUs))
			d = append(d, float64(h.DispatchUs))
			inf = append(inf, float64(h.InferUs))
			net = append(net, rtt-float64(h.QueueUs)-float64(h.CoalesceUs)-float64(h.DispatchUs))
			self = append(self, rtt-float64(h.QueueUs)-float64(h.CoalesceUs)-float64(h.InferUs))
			tr := b.spans.newTrace()
			root := b.spans.add(tr, 0, "frame", fr.due, fr.recv)
			b.spans.add(tr, root, "gen.wait", fr.due, fr.sent)
			hopSpans(b.spans, tr, root, fr.sent, fr.recv, h, true)
		}
	}
	lateP99 := windowedQuantile(late, 0.99)
	if p99 := lateP99; p99 > float64(queueDeadline/time.Microsecond)/4 {
		b.warn("generator p99 lateness %.0f µs is a material share of the %v limit: this rate is unmeasured", p99, queueDeadline)
	}
	if !b.trace {
		b.set("latency_p50_us", windowedQuantile(lat, 0.50))
		logTail(lat)
		b.set("throughput", float64(good)/scheduled.Seconds())
		b.set("setup_s", setupS)
		b.set("ok_ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		return nil
	}
	b.hopQuantiles("router.queue_us", q)
	b.hopQuantiles("router.coalesce_us", c)
	b.hopQuantiles("router.dispatch_us", d)
	b.hopQuantiles("replica.infer_us", inf)
	b.hopQuantiles("network_us", net)
	b.hopQuantiles("transport.self_us", self)
	if batches > 0 {
		b.set("router.rows_per_dispatch", float64(dispatched)/float64(batches))
	}
	b.set("router.shed_rows", float64(shed))
	b.set("router.rerouted_rows", float64(rerouted))
	b.set("runtime.alloc_bytes_per_decision", allocB/float64(b.attempted))
	b.set("runtime.gc_pause_ms", pauseMs)
	b.set("gen.lateness_us.p99", lateP99)
	traced := sortedCopy(append(segLat[1], segLat[3]...))
	untraced := sortedCopy(append(segLat[0], segLat[2]...))
	b.set("trace.overhead_ratio", quantile(traced, 0.5)/quantile(untraced, 0.5))
	return replayLayers(b, s.in.model, s.in.pool(), nil)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
