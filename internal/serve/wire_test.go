package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

func randRows(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Request, n)
	for i := range rows {
		rows[i].Preset = rng.Float64() * 0.3
		rows[i].GPU, rows[i].Cluster = -1, -1
		rows[i].Features = make([]float64, counters.Num)
		for j := range rows[i].Features {
			rows[i].Features[j] = rng.NormFloat64() * 1000
		}
	}
	return rows
}

// wireRequest and wireResponse are one entry of the codec table.
type wireRequest struct {
	name string
	rows []Request
	tc   telemetry.TraceContext
}

type wireResponse struct {
	name    string
	decs    []Decision
	traceID uint64
	hops    HopTimings
}

// wireRequests is the request half of the codec table: every feature of
// the one request layout. It drives the round-trip tests and seeds
// FuzzDecodeRequest, so its frames stay small enough to mutate quickly.
func wireRequests() []wireRequest {
	keyed := randRows(3, 3)
	keyed[0].GPU, keyed[0].Cluster = 0, 0
	keyed[1].GPU, keyed[1].Cluster = 17, 23
	keyed[2].GPU, keyed[2].Cluster = 1<<20, 5
	traced := randRows(2, 60)
	traced[0].GPU, traced[0].Cluster = 3, 9
	traced[1].GPU, traced[1].Cluster = 1, 0
	odd := randRows(2, 5)
	odd[0].Preset = math.NaN()
	odd[0].Features[0] = math.Float64frombits(0x7ff8_dead_beef_0001) // NaN payload
	odd[0].Features[1] = math.Copysign(0, -1)
	odd[1].Features[2] = math.Inf(-1)
	odd[1].GPU, odd[1].Cluster = 2, -7 // a cluster with no meaning still round-trips
	return []wireRequest{
		{name: "untraced without identity", rows: randRows(1, 1)},
		{name: "keyed", rows: keyed},
		{name: "traced", rows: traced, tc: telemetry.TraceContext{TraceID: 0xabcdef, SpanID: 0x1234, Flags: telemetry.FlagSampled}},
		{name: "unsampled trace", rows: randRows(4, 4), tc: telemetry.TraceContext{TraceID: 9, Flags: 0x80}},
		{name: "special floats", rows: odd},
	}
}

// wireResponses is the response half of the codec table; it seeds
// FuzzDecodeResponse.
func wireResponses() []wireResponse {
	return []wireResponse{
		{name: "empty"},
		{name: "daemon", decs: []Decision{
			{Level: 0, PredInstr: 0, Shard: -1},
			{Level: 5, Reason: provenance.ReasonDeadline, PredInstr: 12345.5, Shard: -1},
		}},
		{name: "router traced", traceID: 0xabcdef,
			hops: HopTimings{QueueUs: 5, CoalesceUs: 9, DispatchUs: 140, InferUs: 80},
			decs: []Decision{
				{Level: 3, Reason: provenance.ReasonModel, PredInstr: 42.5, Shard: 0},
				{Level: 5, Reason: provenance.ReasonShed, PredInstr: 17, Shard: -1, Rerouted: true},
				{Level: 1, Reason: provenance.ReasonModel, PredInstr: 9, Shard: 2, Rerouted: true},
			}},
		{name: "extremes", traceID: math.MaxUint64,
			hops: HopTimings{QueueUs: math.MaxUint32, InferUs: 1},
			decs: []Decision{
				{Level: 255, Reason: provenance.Reason(255), PredInstr: math.Float64frombits(0x7ff0_0000_0000_0001), Shard: shardNone - 1},
				{Level: 0, PredInstr: math.Inf(1), Shard: 0},
			}},
	}
}

// wireHandshakes is the handshake table — hello, hello-ack and error
// frames, plus a v4 peer's 8-byte-body ack; it seeds FuzzDecodeHandshake.
func wireHandshakes() [][]byte {
	v4Ack := append(AppendHelloAckFrame(nil, Hello{Generation: 3}), 0)
	v4Ack[4] = 4
	return [][]byte{
		AppendHelloFrame(nil),
		v4Ack,
		AppendHelloAckFrame(nil, Hello{Generation: 3}),
		AppendHelloAckFrame(nil, Hello{Router: true, Shards: 3}),
		AppendHelloAckFrame(nil, Hello{Shards: 0xffff, Generation: math.MaxUint32}),
		AppendErrorFrame(nil, ErrCodeBadMagic, "bad magic 0x47455420"),
		AppendErrorFrame(nil, ErrCodeVersion, ""),
		AppendErrorFrame(nil, 0xffff, strings.Repeat("x", maxErrMsg)),
	}
}

// sameRows compares request rows bit for bit, so NaNs and signed zeros
// count as equal only when their encodings are.
func sameRows(a, b []Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GPU != b[i].GPU || a[i].Cluster != b[i].Cluster ||
			math.Float64bits(a[i].Preset) != math.Float64bits(b[i].Preset) ||
			len(a[i].Features) != len(b[i].Features) {
			return false
		}
		for j := range a[i].Features {
			if math.Float64bits(a[i].Features[j]) != math.Float64bits(b[i].Features[j]) {
				return false
			}
		}
	}
	return true
}

// sameDecs compares decisions bit for bit.
func sameDecs(a, b []Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.PredInstr) != math.Float64bits(y.PredInstr) {
			return false
		}
		x.PredInstr, y.PredInstr = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

func TestRequestFrameRoundTrip(t *testing.T) {
	cases := append(wireRequests(),
		wireRequest{name: "coalesced batch", rows: randRows(64, 64)},
		wireRequest{name: "max batch", rows: randRows(MaxBatch, 7)})
	for _, c := range cases {
		payload, err := AppendRequestFrame(nil, c.rows, c.tc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, tc, err := DecodeRequestFrame(payload, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tc != c.tc {
			t.Fatalf("%s: trace context %+v, want %+v", c.name, tc, c.tc)
		}
		if !sameRows(got, c.rows) {
			t.Fatalf("%s: rows differ after the round trip", c.name)
		}
	}
}

func TestResponseFrameRoundTrip(t *testing.T) {
	for _, c := range wireResponses() {
		payload, err := AppendResponseFrame(nil, c.decs, c.traceID, c.hops)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, traceID, hops, err := DecodeResponseFrame(payload, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if traceID != c.traceID || hops != c.hops {
			t.Fatalf("%s: trace %x hops %+v, want %x %+v", c.name, traceID, hops, c.traceID, c.hops)
		}
		if !sameDecs(got, c.decs) {
			t.Fatalf("%s: decisions %+v, want %+v", c.name, got, c.decs)
		}
	}
}

// TestKeyedFrameRoundTrip checks that row identity and the router's
// shard and rerouted marks survive the one frame, and that an untraced
// exchange leaves the trace and hop sections zero.
func TestKeyedFrameRoundTrip(t *testing.T) {
	rows := randRows(3, 3)
	rows[0].GPU, rows[0].Cluster = 0, 0
	rows[1].GPU, rows[1].Cluster = 17, 23
	rows[2].GPU, rows[2].Cluster = 1<<20, 5
	payload, err := AppendRequestFrame(nil, rows, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	got, tc, err := DecodeRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tc != (telemetry.TraceContext{}) {
		t.Fatalf("untraced request decoded trace context %+v", tc)
	}
	for i := range rows {
		if got[i].GPU != rows[i].GPU || got[i].Cluster != rows[i].Cluster {
			t.Fatalf("row %d identity = (%d,%d), want (%d,%d)",
				i, got[i].GPU, got[i].Cluster, rows[i].GPU, rows[i].Cluster)
		}
	}
	if !sameRows(got, rows) {
		t.Fatal("keyed rows differ after the round trip")
	}

	decs := []Decision{
		{Level: 3, Reason: provenance.ReasonModel, PredInstr: 42.5, Shard: 0},
		{Level: 5, Reason: provenance.ReasonShed, PredInstr: 17, Shard: -1},
		{Level: 1, Reason: provenance.ReasonModel, PredInstr: 9, Shard: 2, Rerouted: true},
	}
	rp, err := AppendResponseFrame(nil, decs, 0, HopTimings{})
	if err != nil {
		t.Fatal(err)
	}
	back, traceID, hops, err := DecodeResponseFrame(rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 0 || hops != (HopTimings{}) {
		t.Fatalf("untraced response decoded trace %x hops %+v", traceID, hops)
	}
	if !sameDecs(back, decs) {
		t.Fatalf("decisions %+v, want %+v", back, decs)
	}
}

// TestTracedFrameRoundTrip checks that a trace context and the echoed
// trace ID and hop timings survive the one frame alongside the rows.
func TestTracedFrameRoundTrip(t *testing.T) {
	rows := randRows(2, 60)
	rows[0].GPU, rows[0].Cluster = 3, 9
	rows[1].GPU, rows[1].Cluster = 1, 0
	tc := telemetry.TraceContext{TraceID: 0xabcdef, SpanID: 0x1234, Flags: telemetry.FlagSampled}
	payload, err := AppendRequestFrame(nil, rows, tc)
	if err != nil {
		t.Fatal(err)
	}
	got, backTC, err := DecodeRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if backTC != tc {
		t.Fatalf("trace context = %+v, want %+v", backTC, tc)
	}
	if !sameRows(got, rows) {
		t.Fatal("traced rows differ after the round trip")
	}

	decs := []Decision{
		{Level: 2, Reason: provenance.ReasonModel, PredInstr: 11, Shard: 1},
		{Level: 4, Reason: provenance.ReasonShed, PredInstr: 7, Shard: -1, Rerouted: true},
	}
	hops := HopTimings{QueueUs: 5, CoalesceUs: 9, DispatchUs: 140, InferUs: 80}
	rp, err := AppendResponseFrame(nil, decs, tc.TraceID, hops)
	if err != nil {
		t.Fatal(err)
	}
	back, traceID, backHops, err := DecodeResponseFrame(rp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != tc.TraceID {
		t.Fatalf("echoed trace ID %x, want %x", traceID, tc.TraceID)
	}
	if backHops != hops {
		t.Fatalf("hops = %+v, want %+v", backHops, hops)
	}
	if !sameDecs(back, decs) {
		t.Fatalf("decisions %+v, want %+v", back, decs)
	}
}

func TestHandshakeFrameRoundTrip(t *testing.T) {
	if err := DecodeHelloFrame(AppendHelloFrame(nil)); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Hello{
		{Version: Version, Tracing: true, Generation: 3},
		{Version: Version, Tracing: true, Router: true, Shards: 3},
	} {
		got, err := DecodeHelloAckFrame(AppendHelloAckFrame(nil, h))
		if err != nil || got != h {
			t.Fatalf("hello-ack round trip = %+v, %v; want %+v", got, err, h)
		}
	}
	pe, err := DecodeErrorFrame(AppendErrorFrame(nil, ErrCodeVersion, "speak 4"))
	if err != nil || *pe != (ProtoError{Code: ErrCodeVersion, Msg: "speak 4"}) {
		t.Fatalf("error frame round trip = %+v, %v", pe, err)
	}
	// A refusal in place of an expected frame surfaces as its ProtoError.
	_, err = DecodeHelloAckFrame(AppendErrorFrame(nil, ErrCodeVersion, "no"))
	if !errors.As(err, &pe) || pe.Code != ErrCodeVersion {
		t.Fatalf("refused hello-ack = %v, want ProtoError %d", err, ErrCodeVersion)
	}
}

func TestHopTimingsMergeTakesMax(t *testing.T) {
	h := HopTimings{QueueUs: 5, InferUs: 100}
	h.Merge(HopTimings{QueueUs: 8, CoalesceUs: 3, InferUs: 40})
	want := HopTimings{QueueUs: 8, CoalesceUs: 3, InferUs: 100}
	if h != want {
		t.Fatalf("merged = %+v, want %+v", h, want)
	}
	if DurUs32(-time.Second) != 0 {
		t.Fatal("negative duration must clamp to 0")
	}
	if DurUs32(100*time.Hour) != 1<<32-1 {
		t.Fatal("huge duration must saturate")
	}
}

func TestEncodeRejectsBadBatches(t *testing.T) {
	var tc telemetry.TraceContext
	if _, err := AppendRequestFrame(nil, nil, tc); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := AppendRequestFrame(nil, randRows(MaxBatch+1, 1), tc); err == nil {
		t.Fatal("oversized batch accepted")
	}
	short := randRows(1, 2)
	short[0].Features = short[0].Features[:10]
	if _, err := AppendRequestFrame(nil, short, tc); err == nil {
		t.Fatal("wrong feature dimension accepted")
	}
	ragged := randRows(2, 3)
	ragged[1].Features = ragged[1].Features[:10]
	if _, err := AppendRequestFrame(nil, ragged, tc); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if _, err := AppendResponseFrame(nil, []Decision{{Level: 300}}, 0, HopTimings{}); err == nil {
		t.Fatal("level 300 accepted")
	}
	if _, err := AppendResponseFrame(nil, make([]Decision, MaxBatch+1), 0, HopTimings{}); err == nil {
		t.Fatal("oversized response accepted")
	}
}

// TestDecodeRejectsCorruptFrames walks a table of truncated, oversized,
// and corrupted payloads through every decoder.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	goodReq, err := AppendRequestFrame(nil, randRows(3, 4), telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	goodResp, err := AppendResponseFrame(nil, []Decision{{Level: 2, PredInstr: 7}}, 0, HopTimings{})
	if err != nil {
		t.Fatal(err)
	}
	goodAck := AppendHelloAckFrame(nil, Hello{Generation: 1})
	goodErr := AppendErrorFrame(nil, ErrCodeBadFrame, "nope")
	mutate := func(src []byte, f func([]byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	extra := func(src []byte) []byte { return append(append([]byte(nil), src...), 0) }
	cases := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"req empty", nil, decodeReq},
		{"req header only", goodReq[:headerLen], decodeReq},
		{"req truncated row", goodReq[:len(goodReq)-8], decodeReq},
		{"req one extra byte", extra(goodReq), decodeReq},
		{"req bad magic", mutate(goodReq, func(b []byte) { b[0] = 'X' }), decodeReq},
		{"req v3 peer", mutate(goodReq, func(b []byte) { b[4] = 3 }), decodeReq},
		{"req bad version", mutate(goodReq, func(b []byte) { b[4] = 9 }), decodeReq},
		{"req wrong type", mutate(goodReq, func(b []byte) { b[5] = MsgDecisions }), decodeReq},
		{"req zero rows", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[23:], 0) }), decodeReq},
		{"req oversized count", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[23:], MaxBatch+1) }), decodeReq},
		{"req count/size mismatch", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[23:], 2) }), decodeReq},
		{"req wrong dim", mutate(goodReq, func(b []byte) { binary.BigEndian.PutUint16(b[25:], 5) }), decodeReq},
		{"resp empty", nil, decodeResp},
		{"resp truncated", goodResp[:len(goodResp)-1], decodeResp},
		{"resp extra byte", extra(goodResp), decodeResp},
		{"resp wrong type", mutate(goodResp, func(b []byte) { b[5] = MsgDecide }), decodeResp},
		{"resp error status", mutate(goodResp, func(b []byte) { b[6] = 1 }), decodeResp},
		{"resp count mismatch", mutate(goodResp, func(b []byte) { binary.BigEndian.PutUint16(b[31:], 40) }), decodeResp},
		{"resp reserved row flag", mutate(goodResp, func(b []byte) { b[headerLen+respPrefix+2] = 2 }), decodeResp},
		{"hello with a body", extra(AppendHelloFrame(nil)), DecodeHelloFrame},
		{"hello from a v3 peer", mutate(AppendHelloFrame(nil), func(b []byte) { b[4] = 3 }), DecodeHelloFrame},
		{"hello from a v4 peer", mutate(AppendHelloFrame(nil), func(b []byte) { b[4] = 4 }), DecodeHelloFrame},
		{"ack legacy length", goodAck[:headerLen+4], decodeAck},
		{"ack extra byte", extra(goodAck), decodeAck},
		{"ack reserved flag", mutate(goodAck, func(b []byte) { b[6] = 2 }), decodeAck},
		{"ack from a v4 peer", append(mutate(goodAck, func(b []byte) { b[4] = 4 }), 0), decodeAck},
		{"error truncated", goodErr[:len(goodErr)-1], decodeErr},
		{"error extra byte", extra(goodErr), decodeErr},
		{"error overlong message", mutate(append(goodErr, make([]byte, maxErrMsg)...), func(b []byte) {
			binary.BigEndian.PutUint16(b[8:], uint16(len(b)-headerLen-4))
		}), decodeErr},
	}
	for _, c := range cases {
		if err := c.decode(c.payload); err == nil {
			t.Errorf("%s: corrupt frame accepted", c.name)
		}
	}
}

func decodeReq(p []byte) error {
	_, _, err := DecodeRequestFrame(p, nil)
	return err
}

func decodeResp(p []byte) error {
	_, _, _, err := DecodeResponseFrame(p, nil)
	return err
}

func decodeAck(p []byte) error {
	_, err := DecodeHelloAckFrame(p)
	return err
}

func decodeErr(p []byte) error {
	_, err := DecodeErrorFrame(p)
	return err
}

func TestReadFrameRejectsOversizedAndTruncated(t *testing.T) {
	var huge bytes.Buffer
	binary.Write(&huge, binary.BigEndian, uint32(MaxFrame+1))
	if _, err := ReadFrame(&huge, nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized frame: err = %v", err)
	}

	var trunc bytes.Buffer
	binary.Write(&trunc, binary.BigEndian, uint32(100))
	trunc.WriteString("only a few bytes")
	if _, err := ReadFrame(&trunc, nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated frame: err = %v", err)
	}
}

// TestFrameScratchReuse verifies decoders reuse caller scratch without
// corrupting earlier results only after the caller hands it back.
func TestFrameScratchReuse(t *testing.T) {
	rows := randRows(8, 7)
	payload, err := AppendRequestFrame(nil, rows, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	scratch, _, err := DecodeRequestFrame(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Re-decode into the same scratch: no new feature allocations needed.
	again, _, err := DecodeRequestFrame(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &scratch[0] || &again[0].Features[0] != &scratch[0].Features[0] {
		t.Fatal("scratch not reused")
	}
}

// The fuzz targets below check, for every decoder of untrusted bytes:
// no panic on any input; any payload the decoder accepts re-encodes
// byte-identically and decodes back to the same value bit for bit; and
// the scratch a decode grows is bounded by what the payload carries.

func FuzzDecodeRequest(f *testing.F) {
	for _, c := range wireRequests() {
		payload, err := AppendRequestFrame(nil, c.rows, c.tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rows, tc, err := DecodeRequestFrame(payload, nil)
		if err != nil {
			return
		}
		if cap(rows) > 2*len(rows) || len(rows)*(reqRowFixed+8*counters.Num) > len(payload) {
			t.Fatalf("%d-byte payload grew scratch to %d rows (%d used)", len(payload), cap(rows), len(rows))
		}
		for i, r := range rows {
			if cap(r.Features) != counters.Num {
				t.Fatalf("row %d feature scratch cap %d, want %d", i, cap(r.Features), counters.Num)
			}
		}
		again, err := AppendRequestFrame(nil, rows, tc)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("accepted payload re-encodes differently")
		}
		back, backTC, err := DecodeRequestFrame(again, nil)
		if err != nil || backTC != tc || !sameRows(back, rows) {
			t.Fatalf("decode(encode(v)) != v: %v", err)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, c := range wireResponses() {
		payload, err := AppendResponseFrame(nil, c.decs, c.traceID, c.hops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		decs, traceID, hops, err := DecodeResponseFrame(payload, nil)
		if err != nil {
			return
		}
		if cap(decs) != len(decs) || len(decs)*respRow > len(payload) {
			t.Fatalf("%d-byte payload grew scratch to %d decisions (%d used)", len(payload), cap(decs), len(decs))
		}
		again, err := AppendResponseFrame(nil, decs, traceID, hops)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatal("accepted payload re-encodes differently")
		}
		back, backID, backHops, err := DecodeResponseFrame(again, nil)
		if err != nil || backID != traceID || backHops != hops || !sameDecs(back, decs) {
			t.Fatalf("decode(encode(v)) != v: %v", err)
		}
	})
}

func FuzzDecodeHandshake(f *testing.F) {
	for _, payload := range wireHandshakes() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if DecodeHelloFrame(payload) == nil && !bytes.Equal(AppendHelloFrame(nil), payload) {
			t.Fatal("accepted hello re-encodes differently")
		}
		if h, err := DecodeHelloAckFrame(payload); err == nil {
			again := AppendHelloAckFrame(nil, h)
			if !bytes.Equal(again, payload) {
				t.Fatal("accepted hello-ack re-encodes differently")
			}
			if back, err := DecodeHelloAckFrame(again); err != nil || back != h {
				t.Fatalf("hello-ack decode(encode(v)) = %+v, %v; want %+v", back, err, h)
			}
		}
		if pe, err := DecodeErrorFrame(payload); err == nil {
			again := AppendErrorFrame(nil, pe.Code, pe.Msg)
			if !bytes.Equal(again, payload) {
				t.Fatal("accepted error frame re-encodes differently")
			}
			if back, err := DecodeErrorFrame(again); err != nil || *back != *pe {
				t.Fatalf("error decode(encode(v)) = %+v, %v; want %+v", back, err, pe)
			}
		}
	})
}
