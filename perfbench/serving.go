package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ssmdvfs/internal/fleet"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// Load-generator limits: the box has two cores, so the generator uses at
// most two sending goroutines, each owning one client connection.
const (
	numConns     = 2
	gpusPerConn  = numGPUs / numConns
	warmupFrames = 200 // closed-loop frames per connection before timing starts
	traceEvery   = 16  // in traced segments, one frame in traceEvery goes out traced
	// queueDeadline is the router's default QueueDeadline, past which it
	// sheds a row as stale: the limit goodput counts decisions against.
	queueDeadline = 2 * time.Millisecond
	setupRepeats  = 5
	settleTimeout = 3 * time.Second
)

// system is the system under test of one serving run: replicas, an
// optional fleet router in front of them, and the generator's client
// connections to the front end.
type system struct {
	in       *inputs
	replicas []*serve.Server
	router   *fleet.Router
	clients  []*serve.Client
	serving  sync.WaitGroup // ServeTCP loops
	received [numConns]tally
	epochs   [numGPUs]int // next epoch each GPU reports
	keyEpoch [numKeys]int // next epoch each key reports (replica frames)
}

// tally counts the decisions one connection received, for the accounting
// checks run after the clients close.
type tally struct {
	total, fromReplica, shed int64
}

// startSystem loads the inputs, starts nReplicas replicas (with every
// sink armed when observed is set) and, when routed, a fleet router with
// default options in front of them, dials the front end over numConns
// connections and negotiates the protocol.
func startSystem(b *bench, nReplicas int, routed, observed bool) (*system, error) {
	sp := b.spans
	tr := sp.newTrace()
	t := time.Now()
	in, err := loadInputs(b)
	if err != nil {
		return nil, err
	}
	sp.add(tr, 0, "setup.load_inputs", t, time.Now())
	s := &system{in: in}
	addrs := make([]string, nReplicas)
	for i := range addrs {
		t := time.Now()
		srv, err := serve.NewServer(in.model, serve.Options{})
		if err != nil {
			s.close()
			return nil, err
		}
		if observed {
			armSinks(srv.Engine)
		}
		s.replicas = append(s.replicas, srv)
		addr, err := s.listen(srv.ServeTCP)
		if err != nil {
			s.close()
			return nil, err
		}
		addrs[i] = addr
		sp.add(tr, 0, "setup.serve.NewServer", t, time.Now())
	}
	front := addrs[0]
	if routed {
		t := time.Now()
		rt, err := fleet.NewRouter(fleet.Options{Replicas: addrs})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = rt
		if front, err = s.listen(rt.ServeTCP); err != nil {
			s.close()
			return nil, err
		}
		sp.add(tr, 0, "setup.fleet.NewRouter", t, time.Now())
	}
	for k := 0; k < numConns; k++ {
		t := time.Now()
		cl, err := serve.DialContext(context.Background(), front, serve.DialOptions{Timeout: 2 * time.Second})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, cl)
		hello, err := cl.Negotiate()
		if err != nil {
			s.close()
			return nil, err
		}
		if !hello.Tracing || hello.Router != routed || (routed && hello.Shards != nReplicas) {
			s.close()
			return nil, fmt.Errorf("unexpected hello %+v", hello)
		}
		sp.add(tr, 0, "setup.serve.DialContext+Negotiate", t, time.Now())
	}
	return s, nil
}

// listen serves on a fresh loopback listener and returns its address.
func (s *system) listen(serveTCP func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		// An accept loop that fails leaves the clients unable to dial,
		// which fails the run where it happens.
		_ = serveTCP(l)
	}()
	return l.Addr().String(), nil
}

// closeClients closes the generator's connections.
func (s *system) closeClients() {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.clients = nil
}

// close stops everything the system started and waits for its accept
// loops to return.
func (s *system) close() {
	s.closeClients()
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.replicas {
		srv.Close()
	}
	s.serving.Wait()
}

// frameResult is what one connection saw of one frame.
type frameResult struct {
	due, sent, recv time.Time
	ready           time.Time // when the frame was due and its connection free
	ok              int       // decisions the model answered correctly
	hops            serve.HopTimings
	traced          bool
	segment         int
}

// account checks every decision of a frame against the oracle and the
// frame shape, updates the connection's tally and returns how many rows
// the model answered.
func (s *system) account(b *bench, mu *sync.Mutex, conn int, rows []int32, decs []serve.Decision, err error) (ok, failed int) {
	if err != nil {
		return 0, len(rows)
	}
	t := &s.received[conn]
	t.total += int64(len(decs))
	for _, d := range decs {
		// Behind a router a replica's answer carries its shard; a row the
		// router shed carries none. A replica answering directly sets no
		// shard either.
		if s.router == nil || d.Shard >= 0 {
			t.fromReplica++
		} else {
			t.shed++
		}
	}
	n := len(decs)
	failed = len(rows) - n
	if n > len(rows) {
		n, failed = len(rows), 0
		mu.Lock()
		b.fail("frame of %d rows got %d decisions", len(rows), len(decs))
		mu.Unlock()
	}
	for j := 0; j < n; j++ {
		switch s.in.check(rows[j], decs[j]) {
		case verdictOK:
			ok++
		case verdictNotModel:
			failed++
		case verdictWrong:
			failed++
			mu.Lock()
			b.fail("decision for dataset row %d = level %d pred %v, core.Inference says level %d pred %v",
				rows[j], decs[j].Level, decs[j].PredInstr, s.in.oracle[rows[j]].level, s.in.oracle[rows[j]].pred)
			mu.Unlock()
		}
	}
	return ok, failed
}

// gpuFrame builds GPU g's next epoch report: one keyed row per cluster.
func (s *system) gpuFrame(g int, reqs []serve.Request, rows []int32) ([]serve.Request, []int32) {
	reqs, rows = reqs[:0], rows[:0]
	e := s.epochs[g]
	s.epochs[g]++
	for c := 0; c < numClusters; c++ {
		r := s.in.rowFor(g, c, e)
		reqs = append(reqs, s.in.request(g, c, r))
		rows = append(rows, r)
	}
	return reqs, rows
}

// shardFrame builds the next 64-row frame of connection conn's share of
// the keys, as one shard receives it from a router's coalescer.
func (s *system) shardFrame(conn, f int, reqs []serve.Request, rows []int32) ([]serve.Request, []int32) {
	const perConn = numKeys / numConns
	const rowsPerFrame = 64
	reqs, rows = reqs[:0], rows[:0]
	first := conn*perConn + (f%(perConn/rowsPerFrame))*rowsPerFrame
	for k := first; k < first+rowsPerFrame; k++ {
		g, c := k/numClusters, k%numClusters
		r := s.in.rowFor(g, c, s.keyEpoch[k])
		s.keyEpoch[k]++
		reqs = append(reqs, s.in.request(g, c, r))
		rows = append(rows, r)
	}
	return reqs, rows
}

// warmup sends closed-loop frames on every connection before timing
// starts; their answers are checked like any other.
func (s *system) warmup(b *bench, frame func(conn, i int, reqs []serve.Request, rows []int32) ([]serve.Request, []int32)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := range s.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var reqs []serve.Request
			var rows []int32
			for i := 0; i < warmupFrames; i++ {
				reqs, rows = frame(k, i, reqs, rows)
				decs, err := s.clients[k].DecideKeyed(reqs)
				s.account(b, &mu, k, rows, decs, err)
			}
		}(k)
	}
	wg.Wait()
}

// settle polls read until two consecutive reads 20 ms apart agree and
// returns the last one. The server counts a batch only after it has
// released the response, so counters can trail what clients received.
func settle[T comparable](read func() T) T {
	deadline := time.Now().Add(settleTimeout)
	prev := read()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		cur := read()
		if cur == prev {
			break
		}
		prev = cur
	}
	return prev
}

// counts is what the system's own counters say it answered.
type counts struct {
	served     int64 // replicas' serve decision counters
	ledger     int64 // replicas' ledger decisions
	recorder   int64 // replicas' flight-recorder heads
	dispatched int64 // rows the router dispatched to replicas
	shed       int64 // rows the router shed
}

// checkAccounting closes the clients, waits for the counters to stop
// changing and checks that the replicas' serve decision counters, ledgers
// and flight-recorder heads, and the router's counters, agree with the
// decisions the clients received.
func (s *system) checkAccounting(b *bench, observed bool) {
	s.closeClients()
	var got tally
	for _, t := range s.received {
		got.total += t.total
		got.fromReplica += t.fromReplica
		got.shed += t.shed
	}
	c := settle(func() counts {
		var c counts
		for _, srv := range s.replicas {
			c.served += srv.Metrics().Decisions.Load()
			c.ledger += srv.Ledger().Snapshot().Decisions
			c.recorder += int64(srv.FlightRecorder().Head())
		}
		if rt := s.router; rt != nil {
			c.dispatched, c.shed = routerDispatched(rt), rt.Metrics().ShedTotal()
		}
		return c
	})
	if c.served != got.fromReplica {
		b.fail("replicas' serve decision counters sum to %d, clients received %d replica decisions", c.served, got.fromReplica)
	}
	if observed && c.ledger != got.fromReplica {
		b.fail("replica ledger counts %d decisions, clients received %d", c.ledger, got.fromReplica)
	}
	if observed && c.recorder != got.fromReplica {
		b.fail("replica flight-recorder head is %d, clients received %d decisions", c.recorder, got.fromReplica)
	}
	if s.router != nil && c.dispatched != got.fromReplica {
		b.fail("router dispatched %d rows, clients received %d replica decisions", c.dispatched, got.fromReplica)
	}
	if s.router != nil && c.shed != got.shed {
		b.fail("router shed %d rows, clients received %d shed decisions", c.shed, got.shed)
	}
	if got.fromReplica+got.shed != got.total {
		b.fail("clients received %d decisions: %d from replicas, %d shed", got.total, got.fromReplica, got.shed)
	}
}

// routerDispatched sums the rows the router dispatched to its replicas.
func routerDispatched(rt *fleet.Router) int64 {
	var n int64
	for i := 0; i < rt.NumShards(); i++ {
		n += rt.Telemetry().Counter("fleet_shard_rows_total", "shard", strconv.Itoa(i)).Load()
	}
	return n
}

// routerBatches returns how many batches the router has dispatched.
func routerBatches(rt *fleet.Router) int64 {
	return rt.Telemetry().HistogramBuckets("fleet_batch_rows", 12).Count()
}

// segmentOf splits a run into four equal segments; in traced runs the odd
// segments sample frames for tracing and the even ones do not, so the
// tracing overhead is measured inside the same run.
func segmentOf(start time.Time, d time.Duration, t time.Time) int {
	s := int(4 * t.Sub(start) / d)
	if s > 3 {
		s = 3
	}
	if s < 0 {
		s = 0
	}
	return s
}

// waitUntil blocks until t. It sleeps in the nanosleep system call until
// just before t and then yields the processor until t arrives. time.Sleep
// would overshoot sub-millisecond waits by about a millisecond (the
// runtime's poller waits in whole milliseconds), and spinning the whole
// wait would keep a processor from polling the network, either of which
// would make the generator, not the program, set the measured latency.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep leaves more of the wait to the loop below.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// sleepSlack is how long before a send time the pacer stops sleeping and
// starts yielding: about the kernel's timer slack for a sleeping thread.
const sleepSlack = 80 * time.Microsecond

// hopSpans records a traced frame's round trip and the per-hop timings
// the reply carried back as spans. Only the hop durations are measured;
// the hops are laid end to end inside the round trip after half of the
// unattributed time, so the round trip's self time is exactly the
// residual the hops do not account for.
func hopSpans(sp *spanLog, trace uint64, parent int32, sent, recv time.Time, h serve.HopTimings, routed bool) {
	rtt := sp.add(trace, parent, "client.roundtrip", sent, recv)
	us := func(v uint32) time.Duration { return time.Duration(v) * time.Microsecond }
	attributed := us(h.InferUs)
	if routed {
		attributed = us(h.QueueUs) + us(h.CoalesceUs) + us(h.DispatchUs)
	}
	t := sent.Add((recv.Sub(sent) - attributed) / 2)
	if !routed {
		sp.add(trace, rtt, "replica.infer", t, t.Add(us(h.InferUs)))
		return
	}
	sp.add(trace, rtt, "router.queue", t, t.Add(us(h.QueueUs)))
	t = t.Add(us(h.QueueUs))
	sp.add(trace, rtt, "router.coalesce", t, t.Add(us(h.CoalesceUs)))
	t = t.Add(us(h.CoalesceUs))
	d := sp.add(trace, rtt, "router.dispatch", t, t.Add(us(h.DispatchUs)))
	it := t.Add((us(h.DispatchUs) - us(h.InferUs)) / 2)
	sp.add(trace, d, "replica.infer", it, it.Add(us(h.InferUs)))
}

// hopQuantiles sets name.p50 and name.p99 from samples in microseconds.
func (b *bench) hopQuantiles(name string, samples []float64) {
	s := sortedCopy(samples)
	b.set(name+".p50", quantile(s, 0.50))
	b.set(name+".p99", quantile(s, 0.99))
}

// sampler returns the trace-context source of one connection in traced
// runs (nil, which never samples, otherwise).
func sampler(b *bench, conn int) *telemetry.Sampler {
	if !b.trace {
		return nil
	}
	return telemetry.NewSampler(traceEvery, uint64(b.seed)<<8|uint64(conn))
}
