package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/nn"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// testModel builds a small untrained (but deterministic) model: serving
// correctness is about transport and concurrency, not accuracy.
func testModel(tb testing.TB, seed int64) *core.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	dec, err := nn.NewMLP([]int{6, 16, 6}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cal, err := nn.NewMLP([]int{7, 16, 1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	identity := func(n int) *counters.Scaler {
		s := &counters.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
		for i := range s.Std {
			s.Std[i] = 1
		}
		return s
	}
	return &core.Model{
		FeatureIdx:     counters.SelectedFive(),
		Levels:         6,
		Decision:       dec,
		Calibrator:     cal,
		DecisionScaler: identity(6),
		CalibScaler:    identity(7),
		TargetScale:    1000,
		PresetSamples:  1,
	}
}

func featureRow(rng *rand.Rand) []float64 {
	row := make([]float64, counters.Num)
	for j := range row {
		row[j] = rng.Float64() * 2
	}
	return row
}

// TestServeTCPEndToEnd runs concurrent binary-protocol clients against a
// live server while the model is hot-swapped mid-load: every request must
// succeed and the metrics must account for all of them.
func TestServeTCPEndToEnd(t *testing.T) {
	m := testModel(t, 1)
	srv, err := NewServer(m, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeTCP(l) }()

	// A second model on disk for the mid-load swap.
	swapPath := filepath.Join(t.TempDir(), "model.json")
	if err := testModel(t, 2).SaveFile(swapPath); err != nil {
		t.Fatal(err)
	}
	srv.opts.ModelPath = swapPath

	const (
		clients = 8
		batches = 40
		rowsPer = 4
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			rows := make([]Request, rowsPer)
			for b := 0; b < batches; b++ {
				for i := range rows {
					rows[i] = Request{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}
				}
				decs, err := cl.DecideKeyed(rows)
				if err != nil {
					t.Errorf("client %d batch %d: %v", c, b, err)
					return
				}
				if len(decs) != rowsPer {
					t.Errorf("client %d: got %d decisions, want %d", c, len(decs), rowsPer)
					return
				}
				for _, d := range decs {
					if d.Level < 0 || d.Level >= m.Levels {
						t.Errorf("client %d: level %d out of range", c, d.Level)
						return
					}
				}
				// Swap the model from one client mid-way through the load.
				if c == 0 && b == batches/2 {
					if err := srv.Reload(""); err != nil {
						t.Errorf("reload: %v", err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	snap := srv.Metrics().Snapshot(m.Levels)
	wantDecisions := int64(clients * batches * rowsPer)
	if snap.Decisions != wantDecisions {
		t.Fatalf("decisions = %d, want %d", snap.Decisions, wantDecisions)
	}
	if snap.Errors != 0 {
		t.Fatalf("errors = %d, want 0 (hot swap must not fail requests)", snap.Errors)
	}
	if snap.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", snap.Reloads)
	}
	var levelTotal int64
	for _, c := range snap.LevelCounts {
		levelTotal += c
	}
	if levelTotal != wantDecisions {
		t.Fatalf("level counts sum to %d, want %d", levelTotal, wantDecisions)
	}
	if snap.LatencyP50Us <= 0 || snap.LatencyP99Us < snap.LatencyP50Us {
		t.Fatalf("latency percentiles implausible: p50=%g p99=%g", snap.LatencyP50Us, snap.LatencyP99Us)
	}

	srv.Close()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
}

// TestServeConnMalformedFrame checks that a protocol violation is
// answered with an error frame, counted, and the connection dropped.
func TestServeConnMalformedFrame(t *testing.T) {
	srv, err := NewServer(testModel(t, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	// A frame with valid length but garbage payload.
	payload := []byte("this is not a request")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(client, nil)
	if err == nil {
		_, _, _, err = DecodeResponseFrame(frame, nil)
	}
	if err == nil {
		t.Fatal("malformed frame got a success response")
	}
	if got := srv.Metrics().Errors.Load(); got == 0 {
		t.Fatal("protocol error not counted")
	}
}

func TestHTTPAPI(t *testing.T) {
	m := testModel(t, 4)
	srv, err := NewServer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(9))
	post := func(path string, body any) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Single decision.
	resp := post("/decide", map[string]any{"features": featureRow(rng), "preset": 0.1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decide status %d", resp.StatusCode)
	}
	var single httpDecision
	if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if single.Level < 0 || single.Level >= m.Levels {
		t.Fatalf("level %d out of range", single.Level)
	}

	// Batch decision.
	rows := []map[string]any{
		{"features": featureRow(rng), "preset": 0.1},
		{"features": featureRow(rng), "preset": 0.2},
	}
	resp = post("/decide", map[string]any{"rows": rows})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/decide batch status %d", resp.StatusCode)
	}
	var batch struct {
		Rows []httpDecision `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Rows) != 2 {
		t.Fatalf("batch returned %d rows", len(batch.Rows))
	}

	// Wrong feature dimension is a 400.
	resp = post("/decide", map[string]any{"features": []float64{1, 2, 3}, "preset": 0.1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dimension status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Reload from an explicit path.
	path := filepath.Join(t.TempDir(), "m.json")
	if err := testModel(t, 5).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resp = post("/reload", map[string]any{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Reload with no path configured fails without killing the server.
	resp = post("/reload", map[string]any{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("/reload without path status %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()

	// Metrics reflect the traffic.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Decisions != 3 {
		t.Fatalf("metrics decisions = %d, want 3", snap.Decisions)
	}
	if snap.Reloads != 1 {
		t.Fatalf("metrics reloads = %d, want 1", snap.Reloads)
	}
	if snap.Errors == 0 {
		t.Fatal("bad-dimension request not counted as error")
	}
	if len(snap.LevelCounts) != m.Levels {
		t.Fatalf("level counts length %d, want %d", len(snap.LevelCounts), m.Levels)
	}

	// Model info.
	iresp, err := http.Get(ts.URL + "/model")
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Levels int `json:"levels"`
		Params int `json:"params"`
	}
	if err := json.NewDecoder(iresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if info.Levels != m.Levels || info.Params == 0 {
		t.Fatalf("model info = %+v", info)
	}

	// Health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hresp.StatusCode)
	}
}

// TestServedDecisionsMatchDirectModel pins the serving path to the plain
// in-process inference: same features, same model, same answers.
func TestServedDecisionsMatchDirectModel(t *testing.T) {
	m := testModel(t, 6)
	srv, err := NewServer(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	cl := NewClient(client)
	rng := rand.New(rand.NewSource(11))
	rows := make([]Request, 32)
	for i := range rows {
		rows[i] = Request{Preset: 0.15, Features: featureRow(rng), GPU: -1, Cluster: -1}
	}
	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	inf := core.NewInference(m)
	for i, row := range rows {
		wantLevel, wantPred := inf.Decide(row.Features, row.Preset)
		if decs[i].Level != wantLevel {
			t.Fatalf("row %d: served level %d, direct %d", i, decs[i].Level, wantLevel)
		}
		if diff := decs[i].PredInstr - wantPred; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("row %d: served prediction %g, direct %g", i, decs[i].PredInstr, wantPred)
		}
	}
}

func TestLoadModelQuantized(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := testModel(t, 7).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	plain, err := LoadModel(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := LoadModel(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Params() != q.Params() {
		t.Fatal("quantization changed parameter count")
	}
	if _, err := LoadModel(path, 1); err == nil {
		t.Fatal("bits=1 accepted")
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestServeConnNegotiatesAndDecides drives one connection through hello
// negotiation and a keyed request: a plain daemon reports no router and
// answers keyed rows with no shard identity.
func TestServeConnNegotiatesAndDecides(t *testing.T) {
	srv, err := NewServer(testModel(t, 31), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Version != Version {
		t.Fatalf("negotiated version %d, want %d", hello.Version, Version)
	}
	if hello.Router {
		t.Fatal("daemon claims to be a router")
	}

	rng := rand.New(rand.NewSource(31))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: 7}}

	decs, err := cl.DecideKeyed(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Shard != -1 || decs[0].Rerouted {
		t.Fatalf("keyed decision = %+v", decs)
	}
	if decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("keyed decision reason = %v", decs[0].Reason)
	}
}

// TestKeyedRowsCarryClusterIntoProvenance sends keyed frames and checks
// the flight recorder attributes decisions to the requesting cluster.
func TestKeyedRowsCarryClusterIntoProvenance(t *testing.T) {
	srv, err := NewServer(testModel(t, 32), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(16, provenance.MonitorOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(32))
	if _, err := cl.DecideKeyed([]Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 19}}); err != nil {
		t.Fatal(err)
	}
	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 1 || recs[0].Cluster != 19 {
		t.Fatalf("recorded %d records, cluster %d; want 1 record for cluster 19", len(recs), recs[0].Cluster)
	}
}

// TestBadMagicGetsStructuredError sends garbage with a valid length
// prefix and expects a typed MsgError refusal, not a silent close.
func TestBadMagicGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("GET / HTTP/1.1\r\n") // not our protocol
	var pre [4]byte
	binary.BigEndian.PutUint32(pre[:], uint32(len(payload)))
	conn.Write(pre[:])
	conn.Write(payload)

	frame, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatalf("no structured error frame: %v", err)
	}
	pe, err := DecodeErrorFrame(frame)
	if err != nil || pe.Code != ErrCodeBadMagic {
		t.Fatalf("got %v, %v; want ProtoError code %d", pe, err, ErrCodeBadMagic)
	}
}

// TestVersionMismatchGetsStructuredError sends the hellos a v3 peer
// (a v3 header offering versions 2..3) and a v4 peer send, and expects
// a typed version refusal for each.
func TestVersionMismatchGetsStructuredError(t *testing.T) {
	srv, err := NewServer(testModel(t, 34), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	for _, v := range []byte{3, 4} {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := AppendHelloFrame(nil)
		if v == 3 {
			hello = append(hello, 2, 3)
		}
		hello[4] = v
		var pre [4]byte
		binary.BigEndian.PutUint32(pre[:], uint32(len(hello)))
		conn.Write(pre[:])
		conn.Write(hello)

		frame, err := ReadFrame(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pe, err := DecodeErrorFrame(frame); err != nil || pe.Code != ErrCodeVersion {
			t.Fatalf("v%d hello: got %v, %v; want ProtoError code %d", v, pe, err, ErrCodeVersion)
		}
	}
}

// TestDecide503InFallbackOnly forces the health machine into
// fallback-only and expects HTTP /decide to refuse with 503 +
// Retry-After (binary transport keeps serving fallback decisions).
func TestDecide503InFallbackOnly(t *testing.T) {
	inj := faults.New(7)
	if err := inj.Arm(FaultDecide, faults.Spec{Kind: faults.KindError, Every: 1}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testModel(t, 35), Options{
		Faults: inj,
		Health: HealthOptions{FailThreshold: 2, ProbeEvery: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: -1, Cluster: -1}}
	srv.decideBatch(rows, nil)
	srv.decideBatch(rows, nil)
	if got := srv.Health(); got != FallbackOnly {
		t.Fatalf("health = %s, want fallback-only", got)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"features": rows[0].Features, "preset": 0.1})
	resp, err := http.Post(ts.URL+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/decide in fallback-only: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if got := srv.Metrics().Unavailable.Load(); got != 1 {
		t.Fatalf("unavailable counter = %d, want 1", got)
	}

	// The binary path still answers (fallback decisions), so the µs-scale
	// control loop is never starved.
	decs := srv.decideBatch(rows, nil)
	if len(decs) != 1 || decs[0].Reason != provenance.ReasonFallbackOnly {
		t.Fatalf("binary-path decision in fallback-only = %+v", decs)
	}
}

// TestTracedDecideEndToEnd drives a traced request through a live
// server: the hello-ack advertises tracing, the traced response carries
// inference attribution, engine spans share the request's trace ID, and
// the flight recorder stamps it so /debug/decisions?trace= can find it.
func TestTracedDecideEndToEnd(t *testing.T) {
	srv, err := NewServer(testModel(t, 61), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.EnableProvenance(64, provenance.MonitorOptions{})
	var spanBuf bytes.Buffer
	tracer := telemetry.NewTracer(&spanBuf)
	srv.SetTracer(tracer)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeTCP(l)
	defer srv.Close()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hello, err := cl.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Tracing {
		t.Fatal("daemon must advertise tracing capability")
	}

	rng := rand.New(rand.NewSource(61))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 2, Cluster: 5}}
	tc := telemetry.NewSampler(1, 77).Next()
	decs, hops, err := cl.DecideKeyedTraced(rows, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != 1 || decs[0].Reason != provenance.ReasonModel {
		t.Fatalf("traced decisions = %+v", decs)
	}
	if hops.QueueUs != 0 || hops.CoalesceUs != 0 {
		t.Fatalf("daemon invented router hops: %+v", hops)
	}

	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := telemetry.ReadSpans(&spanBuf)
	if err != nil {
		t.Fatal(err)
	}
	wantID := telemetry.FormatTraceID(tc.TraceID)
	byName := map[string]telemetry.SpanRecord{}
	for _, sp := range spans {
		if sp.TraceID != wantID {
			t.Fatalf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, wantID)
		}
		byName[sp.Name] = sp
	}
	for _, name := range []string{"engine.decode", "engine.batch", "engine.inference"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("missing span %s (got %v)", name, spans)
		}
	}

	recs := srv.FlightRecorder().Snapshot(nil)
	if len(recs) != 1 || recs[0].TraceID != tc.TraceID {
		t.Fatalf("flight recorder trace stamp: %+v", recs)
	}

	// An untraced request gets no hop attribution.
	decs, hops, err = cl.DecideKeyedTraced(rows, telemetry.TraceContext{})
	if err != nil || len(decs) != 1 {
		t.Fatalf("unsampled traced call: %v %+v", err, decs)
	}
	if hops != (HopTimings{}) {
		t.Fatalf("unsampled call returned hops %+v", hops)
	}
}

// TestTracingDisabledDecideBatchZeroAlloc pins the acceptance criterion:
// the tracing-disabled decision path (no tracer, zero trace context)
// allocates nothing.
func TestTracingDisabledDecideBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse")
	}
	srv, err := NewServer(testModel(t, 62), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}}
	decs := make([]Decision, 0, 4)
	decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{}) // warm pools
	allocs := testing.AllocsPerRun(200, func() {
		decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	})
	if allocs != 0 {
		t.Fatalf("tracing-disabled DecideBatchTraced allocates %v/op, want 0", allocs)
	}
}

// BenchmarkDecide_TracingDisabled measures (and, via -benchmem, proves
// allocation-free) the decision path with tracing compiled in but
// disabled — the CI zero-alloc step asserts 0 allocs/op on this.
func BenchmarkDecide_TracingDisabled(b *testing.B) {
	srv, err := NewServer(testModel(b, 63), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	rows := []Request{{Preset: 0.1, Features: featureRow(rng), GPU: 1, Cluster: 1}}
	decs := make([]Decision, 0, 4)
	decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs, _ = srv.DecideBatchTraced(rows, decs[:0], telemetry.TraceContext{})
	}
}
