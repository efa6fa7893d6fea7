package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ssmdvfs/internal/baselines"
	"ssmdvfs/internal/clockdomain"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
	"ssmdvfs/internal/telemetry"
)

// Options configures a Router.
type Options struct {
	// Replicas are the binary-protocol addresses of the ssmdvfsd replicas
	// behind this router. Required.
	Replicas []string
	// VNodes and Seed configure the consistent-hash ring (see RingOptions).
	VNodes int
	Seed   uint64

	// CoalesceWait bounds how long a non-full batch may linger absorbing
	// more rows before it ships regardless (default 200 µs). Batching is
	// adaptive below that bound: a batch dispatches the moment a slot is
	// free and only grows while every slot is busy, so coalescing costs
	// no latency under light load. CoalesceRows bounds the batch size
	// (default 64, capped at serve.MaxBatch).
	CoalesceWait time.Duration
	CoalesceRows int

	// MaxInFlight is how many coalesced batches one shard may have on the
	// wire at once; each slot owns its own connection (default 2).
	MaxInFlight int
	// QueueLen is the per-shard admission queue capacity (default 1024).
	// A full queue sheds at submit time.
	QueueLen int
	// QueueDeadline sheds rows that waited longer than this between
	// submit and dispatch (default 2 ms); a row that stale is answered by
	// the analytical fallback rather than a late model decision. Zero
	// disables the deadline.
	QueueDeadline time.Duration
	// MaxHops bounds how many times one row may be rerouted to another
	// replica after dispatch failures before it sheds (default 1).
	MaxHops int

	// Table is the operating-point table shed rows fall back to; nil
	// means the TitanX table used throughout the project.
	Table *clockdomain.Table
	// Dial configures the router→replica connections. Zero values get a
	// 1 s connect timeout and no retries (the router's reroute path is
	// its retry policy).
	Dial serve.DialOptions
	// ProbeInterval is how often every replica is re-dialed — unhealthy
	// ones for recovery, healthy ones to refresh the model lineage
	// generation they advertise (default 250 ms).
	ProbeInterval time.Duration
	// Tracer, when set, emits router-hop spans (router.queue,
	// router.coalesce, router.dispatch, router.reroute, router.shed) for
	// sampled traced requests. Nil keeps the routing path span-free; the
	// unsampled path pays only a flag check either way.
	Tracer *telemetry.Tracer
	// Logf receives progress messages; nil silences them.
	Logf func(format string, args ...any)

	// ReplicaHTTP lists the replicas' HTTP base URLs (e.g.
	// "http://127.0.0.1:8080"); when non-empty the router runs a ledger
	// scrape loop that pulls every replica's /debug/ledger snapshot,
	// merges them, evaluates AlertRules, and serves the fleet view at
	// /debug/ledger + ledger_fleet_*/alert_* series on /metrics.prom.
	// Empty (the default) disables the aggregation plane entirely.
	ReplicaHTTP []string
	// ScrapeInterval is the ledger scrape cadence (default 1 s).
	ScrapeInterval time.Duration
	// AlertRules are evaluated against the merged ledger every scrape;
	// nil runs ledger.DefaultRules() (pass an empty non-nil slice to
	// scrape without alerting).
	AlertRules []ledger.Rule
}

func (o Options) withDefaults() Options {
	if o.CoalesceWait <= 0 {
		o.CoalesceWait = 200 * time.Microsecond
	}
	if o.CoalesceRows <= 0 {
		o.CoalesceRows = 64
	}
	if o.CoalesceRows > serve.MaxBatch {
		o.CoalesceRows = serve.MaxBatch
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.QueueDeadline < 0 {
		o.QueueDeadline = 0
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 1
	}
	if o.Table == nil {
		o.Table = clockdomain.TitanX()
	}
	if o.Dial.Timeout <= 0 {
		o.Dial.Timeout = time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ScrapeInterval <= 0 {
		o.ScrapeInterval = time.Second
	}
	if o.AlertRules == nil {
		o.AlertRules = ledger.DefaultRules()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// call is one row in flight through the router: submitted to a shard
// queue, coalesced into a batch, dispatched, and answered (by a replica,
// a reroute, or the shed fallback). done closes exactly once, after dec
// is final.
type call struct {
	req  serve.Request
	enq  time.Time
	hops int
	dec  serve.Decision
	done chan struct{}

	// tc is the front-end trace context the row arrived under (zero for
	// untraced rows); deq is when the coalescer pulled the row off the
	// queue (stamped only for sampled rows); hop accumulates the row's
	// per-hop latency attribution for the traced response.
	tc  telemetry.TraceContext
	deq time.Time
	hop serve.HopTimings
}

// shard is one replica's routing state: the admission queue, the
// coalescer feeding batches, and the dispatchers draining them.
type shard struct {
	idx     int
	addr    string
	queue   chan *call
	batches chan []*call
	// gen is the model lineage generation the replica last advertised in
	// hello negotiation; -1 until a hello has been seen. Refreshed on
	// every dispatch-slot connect and on every prober tick (healthy
	// replicas included), so a replica left behind by an online promotion
	// is flagged within one probe interval.
	gen atomic.Int64
}

// Router is the fleet serving tier: it owns the consistent-hash ring,
// one coalescer+dispatcher pipeline per replica, admission control, and
// the binary-protocol front end. Rows enter via Decide (in-process) or
// ServeConn (wire), are routed by their (gpu, cluster) key, coalesced
// into multi-row frames per replica, and always come back with a
// decision — model, rerouted, or shed-to-fallback — never an error.
type Router struct {
	opts    Options
	ring    *Ring
	metrics *Metrics
	shards  []*shard

	stop    chan struct{}
	stopMu  sync.RWMutex // guards stopped against racing submits
	stopped bool
	wg      sync.WaitGroup

	synthSeq atomic.Int64 // synthetic identity for unkeyed rows
	connSeq  atomic.Int64

	conns sync.Map // net.Conn → struct{}, for Close
	ls    sync.Map // net.Listener → struct{}, for Close

	// plane is the ledger aggregation plane, nil unless ReplicaHTTP was
	// configured.
	plane *ledgerPlane
}

// NewRouter builds and starts a router over the replica set: the ring,
// one coalescer and MaxInFlight dispatchers per shard, and the health
// prober all start immediately.
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(RingOptions{Replicas: opts.Replicas, VNodes: opts.VNodes, Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	names := ring.Replicas()
	rt := &Router{
		opts:    opts,
		ring:    ring,
		metrics: newMetrics(telemetry.NewRegistry(), len(names)),
		shards:  make([]*shard, len(names)),
		stop:    make(chan struct{}),
	}
	rt.metrics.Healthy.Set(float64(ring.Healthy()))
	for i, addr := range names {
		s := &shard{
			idx:     i,
			addr:    addr,
			queue:   make(chan *call, opts.QueueLen),
			batches: make(chan []*call, opts.MaxInFlight),
		}
		s.gen.Store(-1)
		rt.shards[i] = s
		rt.wg.Add(1 + opts.MaxInFlight)
		go rt.coalesce(s)
		for d := 0; d < opts.MaxInFlight; d++ {
			go rt.dispatch(s)
		}
	}
	rt.wg.Add(1)
	go rt.probe()
	if len(opts.ReplicaHTTP) > 0 {
		rt.plane = newLedgerPlane(rt, opts)
		rt.wg.Add(1)
		go rt.plane.loop()
	}
	return rt, nil
}

// Ring exposes the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Metrics exposes the router's counters.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Telemetry exposes the registry hosting the fleet metrics.
func (rt *Router) Telemetry() *telemetry.Registry { return rt.metrics.Registry() }

// NumShards returns the replica count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Decide routes every row through the fleet and appends one Decision per
// row to decs, in row order. It blocks until all rows are answered; rows
// the fleet cannot serve in time come back shed to the analytical
// fallback (Reason == ReasonShed), never as an error. Rows without a
// (gpu, cluster) identity get a synthetic one so they still shard.
func (rt *Router) Decide(rows []serve.Request, decs []serve.Decision) []serve.Decision {
	decs, _ = rt.DecideTraced(rows, decs, telemetry.TraceContext{})
	return decs
}

// DecideTraced is Decide carrying distributed-trace context: sampled
// rows emit router.queue/coalesce/dispatch spans, propagate the context
// to their replicas, and return the batch's per-hop latency attribution
// (merged across rows as a per-field max). A zero context is exactly
// Decide.
func (rt *Router) DecideTraced(rows []serve.Request, decs []serve.Decision, tc telemetry.TraceContext) ([]serve.Decision, serve.HopTimings) {
	rt.metrics.Requests.Add(1)
	calls := make([]*call, len(rows))
	for i := range rows {
		c := &call{req: rows[i], enq: time.Now(), tc: tc, done: make(chan struct{})}
		if c.req.GPU < 0 || c.req.Cluster < 0 {
			seq := rt.synthSeq.Add(1)
			c.req.GPU = int32(seq % (1 << 30))
			c.req.Cluster = int32(i)
		}
		calls[i] = c
		rt.submit(c)
	}
	var hops serve.HopTimings
	for _, c := range calls {
		<-c.done
		decs = append(decs, c.dec)
		hops.Merge(c.hop)
	}
	return decs, hops
}

// submit routes one call to its shard's admission queue, shedding on a
// full queue, an empty ring, or a closing router. After submit the call
// is guaranteed to complete.
func (rt *Router) submit(c *call) {
	rt.stopMu.RLock()
	defer rt.stopMu.RUnlock()
	if rt.stopped {
		rt.shedCall(c, ShedShutdown)
		return
	}
	shardIdx, ok := rt.ring.Lookup(Key(rt.ring.Seed(), c.req.GPU, c.req.Cluster))
	if !ok {
		rt.shedCall(c, ShedNoReplica)
		return
	}
	select {
	case rt.shards[shardIdx].queue <- c:
		rt.metrics.Rows.Add(1)
		rt.metrics.Admitted()
	default:
		rt.shedCall(c, ShedQueueFull)
	}
}

// shedCall answers one call from the analytical fallback and counts why.
// Shed rows carry ReasonShed and no shard, so clients and the flight
// recorder can tell an admission-control answer from a model answer.
func (rt *Router) shedCall(c *call, cause string) {
	level, pred := baselines.FallbackDecision(rt.opts.Table, c.req.Features, c.req.Preset)
	c.dec = serve.Decision{
		Level: level, Reason: provenance.ReasonShed, PredInstr: pred,
		Shard: -1, Rerouted: c.hops > 0,
	}
	rt.metrics.Shed(cause)
	if c.tc.Sampled() {
		now := time.Now()
		c.hop.QueueUs = serve.DurUs32(now.Sub(c.enq))
		sp := rt.opts.Tracer.StartSpanAt(c.tc, "router.shed", c.enq, "cause", cause)
		sp.EndAt(now)
	}
	close(c.done)
}

// coalesce is one shard's batching loop. Batching is adaptive: a batch
// is handed off the moment a dispatch slot is free (no added latency
// under light load), keeps absorbing queued rows while all slots are
// busy (frames grow exactly when the wire is the bottleneck), and ships
// regardless once it is CoalesceRows full or has lingered CoalesceWait.
// On shutdown it sheds whatever is still queued.
func (rt *Router) coalesce(s *shard) {
	defer rt.wg.Done()
	defer close(s.batches)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		var first *call
		select {
		case first = <-s.queue:
		case <-rt.stop:
			rt.drainQueue(s)
			return
		}
		stampDeq(first)
		batch := make([]*call, 1, rt.opts.CoalesceRows)
		batch[0] = first
		timer.Reset(rt.opts.CoalesceWait)
		sent, expired := false, false
		for !sent && !expired && len(batch) < rt.opts.CoalesceRows {
			select {
			case s.batches <- batch:
				sent = true
			case c := <-s.queue:
				stampDeq(c)
				batch = append(batch, c)
			case <-timer.C:
				expired = true
			case <-rt.stop:
				for _, c := range batch {
					rt.shedCall(c, ShedShutdown)
				}
				rt.drainQueue(s)
				return
			}
		}
		if !timer.Stop() && !expired {
			<-timer.C
		}
		if !sent {
			// Full or past the linger bound: block until a slot frees.
			select {
			case s.batches <- batch:
			case <-rt.stop:
				for _, c := range batch {
					rt.shedCall(c, ShedShutdown)
				}
				rt.drainQueue(s)
				return
			}
		}
	}
}

// drainQueue sheds everything still queued on a closing shard. Safe to
// run to empty: Close flips stopped before closing the stop channel, so
// no new calls can enter the queue afterwards.
func (rt *Router) drainQueue(s *shard) {
	for {
		select {
		case c := <-s.queue:
			rt.shedCall(c, ShedShutdown)
		default:
			return
		}
	}
}

// stampDeq records when the coalescer pulled a sampled call off its
// shard queue — the boundary between queue wait and coalesce linger.
// Unsampled calls skip the clock read.
func stampDeq(c *call) {
	if c.tc.Sampled() {
		c.deq = time.Now()
	}
}

// dispatch is one in-flight slot for a shard: it owns one connection and
// drains coalesced batches onto it. A failed round-trip marks the
// replica unhealthy and reroutes the batch through the ring; rows past
// their queue deadline shed before any bytes move.
func (rt *Router) dispatch(s *shard) {
	defer rt.wg.Done()
	var cl *serve.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	var rows []serve.Request
	for batch := range s.batches {
		// Admission deadline: a row that waited past QueueDeadline is
		// answered by the fallback now — a late DVFS decision is worse
		// than a safe analytical one.
		live := batch[:0]
		if dl := rt.opts.QueueDeadline; dl > 0 {
			now := time.Now()
			for _, c := range batch {
				if now.Sub(c.enq) > dl {
					rt.shedCall(c, ShedDeadline)
				} else {
					live = append(live, c)
				}
			}
		} else {
			live = batch
		}
		if len(live) == 0 {
			continue
		}

		if cl == nil {
			c, err := rt.dialReplica(s)
			if err != nil {
				rt.replicaFailed(s, live, err)
				continue
			}
			cl = c
		}
		rows = rows[:0]
		for _, c := range live {
			rows = append(rows, c.req)
		}
		// The first sampled call's context parents this batch's dispatch
		// span and rides to the replica (coalesced batches share one
		// downstream trace; every sampled row still gets its own queue
		// and coalesce spans below).
		var parentTC telemetry.TraceContext
		for _, c := range live {
			if c.tc.Sampled() {
				parentTC = c.tc
				break
			}
		}
		dspSp := rt.opts.Tracer.StartSpan(parentTC, "router.dispatch", "shard", s.addr)
		childTC := parentTC
		if dspSp != nil {
			childTC = dspSp.Context()
		}
		start := time.Now()
		decs, repHops, err := cl.DecideKeyedTraced(rows, childTC)
		rtt := time.Since(start)
		dspSp.End()
		if err != nil {
			cl.Close()
			cl = nil
			rt.replicaFailed(s, live, err)
			continue
		}
		rt.metrics.ObserveDispatchTraced(s.idx, len(live), rtt, parentTC.TraceID)
		for i, c := range live {
			c.dec = decs[i]
			c.dec.Shard = s.idx
			c.dec.Rerouted = c.hops > 0
			if c.tc.Sampled() {
				c.hop.QueueUs = serve.DurUs32(c.deq.Sub(c.enq))
				c.hop.CoalesceUs = serve.DurUs32(start.Sub(c.deq))
				c.hop.DispatchUs = serve.DurUs32(rtt)
				c.hop.InferUs = repHops.InferUs
				if tr := rt.opts.Tracer; tr != nil {
					qs := tr.StartSpanAt(c.tc, "router.queue", c.enq)
					qs.EndAt(c.deq)
					cs := tr.StartSpanAt(c.tc, "router.coalesce", c.deq)
					cs.EndAt(start)
				}
			}
			close(c.done)
		}
	}
}

// dialReplica connects one dispatch slot to its replica and negotiates
// the protocol; a replica that refuses the hello is a dial failure.
func (rt *Router) dialReplica(s *shard) (*serve.Client, error) {
	cl, err := serve.DialContext(context.Background(), s.addr, rt.opts.Dial)
	if err != nil {
		return nil, err
	}
	hello, err := cl.Negotiate()
	if err != nil {
		cl.Close()
		return nil, err
	}
	rt.noteGeneration(s, hello)
	return cl, nil
}

// noteGeneration records the model lineage generation a replica
// advertised in hello negotiation.
func (rt *Router) noteGeneration(s *shard, hello serve.Hello) {
	s.gen.Store(int64(hello.Generation))
	rt.metrics.shards[s.idx].Generation.Set(float64(hello.Generation))
}

// replicaFailed marks a shard unhealthy and reroutes its in-flight calls
// through the ring (which now skips it). Calls out of hops shed instead.
func (rt *Router) replicaFailed(s *shard, calls []*call, err error) {
	rt.metrics.shards[s.idx].Errors.Add(1)
	if rt.ring.SetHealthy(s.idx, false) {
		rt.metrics.Down.Add(1)
		rt.metrics.Healthy.Set(float64(rt.ring.Healthy()))
		rt.opts.Logf("fleet: replica %s (shard %d) down: %v", s.addr, s.idx, err)
	}
	for _, c := range calls {
		if c.hops >= rt.opts.MaxHops {
			rt.shedCall(c, ShedNoReplica)
			continue
		}
		c.hops++
		rt.metrics.Rerouted.Add(1)
		if c.tc.Sampled() {
			sp := rt.opts.Tracer.StartSpan(c.tc, "router.reroute", "from", s.addr)
			sp.End()
		}
		rt.submit(c)
	}
}

// probe periodically re-dials every replica: unhealthy ones are restored
// to the ring on a successful re-negotiation (moving their keys back
// home), and healthy ones have their advertised model lineage refreshed
// so a replica serving a stale generation is flagged within one probe
// interval even when no dispatch slot has reconnected to it.
func (rt *Router) probe() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		for _, s := range rt.shards {
			healthy := rt.ring.IsHealthy(s.idx)
			cl, err := serve.DialContext(context.Background(), s.addr, rt.opts.Dial)
			if err != nil {
				// An unreachable healthy replica is the dispatch path's
				// problem (it owns failure detection); an unreachable
				// unhealthy one just stays out of the ring.
				continue
			}
			// Recovery and lineage refresh both re-negotiate instead of
			// trusting a bare TCP accept: a replica that came back speaking
			// another protocol version must stay out of the ring, and the
			// hello is where the generation rides.
			hello, err := cl.Negotiate()
			if err != nil {
				cl.Close()
				continue
			}
			cl.Close()
			rt.noteGeneration(s, hello)
			if !healthy && rt.ring.SetHealthy(s.idx, true) {
				rt.metrics.Up.Add(1)
				rt.metrics.Healthy.Set(float64(rt.ring.Healthy()))
				rt.opts.Logf("fleet: replica %s (shard %d) recovered", s.addr, s.idx)
			}
		}
	}
}

// Close shuts the router down: no new admissions, queued rows shed to
// the fallback, listeners and front-end connections closed, and all
// pipeline goroutines joined.
func (rt *Router) Close() {
	rt.stopMu.Lock()
	if rt.stopped {
		rt.stopMu.Unlock()
		return
	}
	rt.stopped = true
	rt.stopMu.Unlock()
	close(rt.stop)
	rt.ls.Range(func(k, _ any) bool {
		k.(net.Listener).Close()
		return true
	})
	rt.conns.Range(func(k, _ any) bool {
		k.(net.Conn).Close()
		return true
	})
	rt.wg.Wait()
}

// ServeTCP accepts front-end connections on l, one goroutine per
// connection, until the listener closes.
func (rt *Router) ServeTCP(l net.Listener) error {
	rt.ls.Store(l, struct{}{})
	defer rt.ls.Delete(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go rt.ServeConn(conn)
	}
}

// connBuffers is per-connection front-end scratch.
type connBuffers struct {
	frame []byte
	rows  []serve.Request
	out   []byte
	decs  []serve.Decision
}

// ServeConn speaks the binary protocol to one client: decide frames
// route per row through the ring, rows without identity getting a
// synthetic per-connection one so they still shard; MsgHello answers
// with the router flag and the shard count. Mismatched peers get a
// structured MsgError, exactly like a single daemon.
func (rt *Router) ServeConn(conn net.Conn) {
	rt.conns.Store(conn, struct{}{})
	defer func() {
		rt.conns.Delete(conn)
		conn.Close()
	}()
	connID := int32(rt.connSeq.Add(1) % (1 << 30))
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	bufs := &connBuffers{}
	for {
		frame, err := serve.ReadFrame(br, bufs.frame)
		if err != nil {
			return
		}
		bufs.frame = frame[:cap(frame)]
		if !rt.serveFrame(bw, bufs, connID, frame) {
			return
		}
	}
}

// serveFrame answers one front-end frame, reporting whether the
// connection is still usable.
func (rt *Router) serveFrame(bw *bufio.Writer, bufs *connBuffers, connID int32, frame []byte) bool {
	msgType, err := serve.ParseHeader(frame)
	switch {
	case err != nil:
	case msgType == serve.MsgHello:
		if err = serve.DecodeHelloFrame(frame); err == nil {
			bufs.out = serve.AppendHelloAckFrame(bufs.out[:0], serve.Hello{Router: true, Shards: len(rt.shards)})
			return serve.WriteFrame(bw, bufs.out) == nil && bw.Flush() == nil
		}
	case msgType == serve.MsgDecide:
		var rows []serve.Request
		var tc telemetry.TraceContext
		if rows, tc, err = serve.DecodeRequestFrame(frame, bufs.rows); err != nil {
			break
		}
		bufs.rows = rows
		for i := range rows {
			if rows[i].GPU < 0 {
				// No identity: synthesize a stable one from the connection
				// and row index so the row shards consistently.
				rows[i].GPU, rows[i].Cluster = connID, int32(i)
			}
		}
		var hops serve.HopTimings
		bufs.decs, hops = rt.DecideTraced(rows, bufs.decs[:0], tc)
		out, err := serve.AppendResponseFrame(bufs.out[:0], bufs.decs, tc.TraceID, hops)
		if err != nil {
			return false
		}
		bufs.out = out
		return serve.WriteFrame(bw, out) == nil && bw.Flush() == nil
	default:
		err = fmt.Errorf("unexpected message type %d", msgType)
	}
	serve.WriteError(bw, err)
	return false
}

// Handler returns the router's HTTP surface:
//
//	GET /metrics       fleet counters as a telemetry JSON snapshot
//	GET /metrics.prom  the same in Prometheus text exposition 0.0.4
//	GET /healthz       per-replica health (503 when no replica is healthy)
//	GET /debug/ledger  merged fleet efficiency ledger (404 when disabled)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
		rt.Telemetry().WriteJSON(w)
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.ContentTypeProm)
		rt.Telemetry().WriteProm(w)
	})
	mux.HandleFunc("/debug/ledger", rt.handleLedger)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type replica struct {
			Shard   int    `json:"shard"`
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
			// Generation is the model lineage the replica last advertised
			// (-1 before any hello); Stale flags a replica whose known
			// generation trails the newest one known anywhere in the fleet
			// — the signature of an online promotion that missed it.
			Generation int  `json:"generation"`
			Stale      bool `json:"stale,omitempty"`
		}
		reps := make([]replica, len(rt.shards))
		maxGen := int64(-1)
		for _, s := range rt.shards {
			if g := s.gen.Load(); g > maxGen {
				maxGen = g
			}
		}
		for i, s := range rt.shards {
			g := s.gen.Load()
			reps[i] = replica{
				Shard:      i,
				Addr:       s.addr,
				Healthy:    rt.ring.IsHealthy(i),
				Generation: int(g),
				Stale:      g >= 0 && g < maxGen,
			}
		}
		w.Header().Set("Content-Type", telemetry.ContentTypeJSON)
		if rt.ring.Healthy() == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			Healthy  int       `json:"healthy_replicas"`
			Replicas []replica `json:"replicas"`
		}{rt.ring.Healthy(), reps})
	})
	return mux
}
