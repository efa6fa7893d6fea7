// Package serve turns the SSMDVFS model into a long-running decision
// service: the paper's ASIC engine produces one decision per cluster per
// 10 µs epoch, and this package is the software equivalent — a concurrent
// daemon that answers "which operating level next, and how many
// instructions do you expect?" over HTTP/JSON (debuggable) and a compact
// length-prefixed binary protocol over TCP (the hot path), with
// zero-downtime model hot-swap and latency/throughput metrics.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/telemetry"
)

// Wire protocol: every message is one length-prefixed frame,
//
//	uint32  payload length (big endian, <= MaxFrame)
//	payload
//
// and every payload starts with a fixed header,
//
//	uint32  magic   "SDVF"
//	uint8   version (Version; any other is refused)
//	uint8   message type
//
// There is one request layout and one response layout. A decide request
// (MsgDecide) carries distributed-trace context and a batch of rows, each
// keyed by the requesting cluster and holding a performance-loss preset
// plus the full 47-counter feature vector (feature selection happens
// inside the model, exactly as in the simulator loop):
//
//	uint64  trace ID, uint64 parent span ID, uint8 trace flags
//	uint16  row count (1..MaxBatch)
//	uint16  feature dimension (must equal counters.Num)
//	rows    count × (int32 gpu, int32 cluster, float64 preset, dim × float64)
//
// An all-zero trace context means untraced. A row with gpu < 0 carries no
// identity; a fleet router synthesizes one so it still shards.
//
// A decide response (MsgDecisions) echoes the trace ID, carries the
// per-hop latency attribution (zero unless a traced request filled it),
// and per row the chosen level, the provenance reason that produced it, a
// flags byte (bit 0: rerouted; the other bits are reserved and rejected),
// the fleet shard that answered (0xffff: none) and the predicted
// next-epoch instruction count:
//
//	uint8   status (StatusOK)
//	uint64  trace ID (echo)
//	uint32  queue µs, uint32 coalesce µs, uint32 dispatch µs, uint32 infer µs
//	uint16  row count
//	rows    count × (uint8 level, uint8 reason, uint8 flags, uint16 shard, float64)
//
// A client may open with MsgHello, a bare header whose version is the
// offer. The server answers MsgHelloAck with one fixed body,
//
//	uint8   flags (HelloFlagRouter; the other bits are reserved)
//	uint16  shard count (0 for a single daemon)
//	uint32  model lineage generation
//
// A frame the server cannot serve — wrong magic, another version, a
// malformed body — is answered with MsgError before the connection drops,
// so a mismatched peer gets a typed refusal instead of a hung read:
//
//	uint16  code (ErrCode*), uint16 message length (<= 512), message
//
// Version history: v1 response rows had no reason byte; v2 added it; v3
// added keyed and traced frames beside the plain ones, negotiated per
// peer; v4 made the traced keyed layout the only one; v5 dropped the
// hello-ack's serving-numerics byte (float64 is the only served path).
const (
	Magic   = 0x53445646 // "SDVF"
	Version = 5

	// Message types. 3, 4, 8 and 9 were v3's keyed and traced variants.
	MsgDecide    = 1
	MsgDecisions = 2
	MsgHello     = 5
	MsgHelloAck  = 6
	MsgError     = 7

	// MaxFrame bounds a frame payload; anything larger is rejected before
	// allocation, so a corrupt length prefix cannot balloon memory.
	MaxFrame = 1 << 20

	// MaxBatch bounds the rows in one request frame.
	MaxBatch = 1024

	// StatusOK is the only status a served response carries.
	StatusOK = 0

	// HelloFlagRouter in a HelloAck marks the peer as a fleet router
	// rather than a single-GPU daemon.
	HelloFlagRouter = 1

	headerLen   = 6
	reqPrefix   = 8 + 8 + 1 + 2 + 2 // trace ID, span ID, flags, count, dim
	reqRowFixed = 4 + 4 + 8         // gpu, cluster, preset
	respPrefix  = 1 + 8 + 4*4 + 2   // status, trace ID, hops, count
	respRow     = 1 + 1 + 1 + 2 + 8
	ackBody     = 1 + 2 + 4
	maxErrMsg   = 512

	decFlagRerouted = 1
	shardNone       = 0xffff
)

// Structured protocol-error codes carried by MsgError frames.
const (
	ErrCodeBadMagic = 1 // peer is not speaking this protocol at all
	ErrCodeVersion  = 2 // version other than Version
	ErrCodeBadFrame = 3 // recognized header but malformed body
)

// Hello is a peer's hello-ack: the protocol version, whether the peer is
// a router and (for routers) its shard count, and the lineage generation
// of the model it is serving (0 for an unversioned offline artifact). Every peer at this
// version accepts traced frames, so a decoded ack always has Tracing set.
type Hello struct {
	Version    int
	Router     bool
	Tracing    bool
	Shards     int
	Generation int
}

// HopTimings is the per-hop latency attribution a traced response
// carries back up the stack, each in microseconds (saturating at
// ~71 min, far beyond any serving timeout): time the frame's rows spent
// in an admission queue, lingering in the coalescer, in the dispatch
// round trip to a replica, and in model inference. A hop fills only the
// fields it knows — a daemon answering directly sets InferUs alone; the
// router adds queue/coalesce/dispatch on the way back; the client
// derives network time as total minus the attributed hops.
type HopTimings struct {
	QueueUs    uint32
	CoalesceUs uint32
	DispatchUs uint32
	InferUs    uint32
}

// Merge folds another attribution into h taking the per-field maximum —
// the aggregation a router uses when one client frame was answered by
// several replica batches.
func (h *HopTimings) Merge(o HopTimings) {
	if o.QueueUs > h.QueueUs {
		h.QueueUs = o.QueueUs
	}
	if o.CoalesceUs > h.CoalesceUs {
		h.CoalesceUs = o.CoalesceUs
	}
	if o.DispatchUs > h.DispatchUs {
		h.DispatchUs = o.DispatchUs
	}
	if o.InferUs > h.InferUs {
		h.InferUs = o.InferUs
	}
}

// DurUs32 converts a duration to saturating uint32 microseconds, the
// unit HopTimings carries on the wire.
func DurUs32(d time.Duration) uint32 {
	us := d.Microseconds()
	if us < 0 {
		return 0
	}
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}

// ProtoError is the decoded form of a MsgError frame — the structured
// refusal a server sends instead of silently dropping the connection.
type ProtoError struct {
	Code int
	Msg  string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("serve: protocol error %d: %s", e.Code, e.Msg)
}

// Request is one decision request row.
type Request struct {
	// Preset is the performance-loss preset for this decision.
	Preset float64
	// Features is the full 47-counter vector of the finished epoch.
	Features []float64
	// GPU and Cluster identify the requesting cluster for fleet routing
	// and per-cluster accounting. GPU < 0 means no identity.
	GPU     int32
	Cluster int32
}

// Decision is one decision response row.
type Decision struct {
	// Level is the operating-point class the Decision-maker chose.
	Level int
	// Reason says which path produced the decision (model, or one of the
	// degradation paths).
	Reason provenance.Reason
	// PredInstr is the Calibrator's next-epoch instruction estimate.
	PredInstr float64
	// Shard is the fleet shard index that answered; -1 when no router was
	// involved or the row was shed locally.
	Shard int
	// Rerouted marks a row that was re-submitted to a different replica
	// after its home shard failed.
	Rerouted bool
}

func putHeader(b []byte, msgType byte) {
	binary.BigEndian.PutUint32(b, Magic)
	b[4] = Version
	b[5] = msgType
}

// ParseHeader validates a payload's magic and version and returns its
// message type — the dispatch step any transport speaking this protocol
// performs first. Errors are *ProtoError, ready to answer with
// AppendErrorFrame.
func ParseHeader(payload []byte) (msgType byte, err error) {
	if len(payload) < headerLen {
		return 0, &ProtoError{Code: ErrCodeBadFrame, Msg: fmt.Sprintf("frame too short for header (%d bytes)", len(payload))}
	}
	if m := binary.BigEndian.Uint32(payload); m != Magic {
		return 0, &ProtoError{Code: ErrCodeBadMagic, Msg: fmt.Sprintf("bad magic %#x", m)}
	}
	if payload[4] != Version {
		return 0, &ProtoError{Code: ErrCodeVersion, Msg: fmt.Sprintf("unsupported protocol version %d (speak %d)", payload[4], Version)}
	}
	return payload[5], nil
}

// checkHeader validates the header and the message type. A MsgError
// frame in place of the expected type surfaces as its *ProtoError.
func checkHeader(payload []byte, wantType byte) error {
	t, err := ParseHeader(payload)
	if err != nil || t == wantType {
		return err
	}
	if t == MsgError {
		pe, err := DecodeErrorFrame(payload)
		if err != nil {
			return err
		}
		return pe
	}
	return fmt.Errorf("serve: unexpected message type %d, want %d", t, wantType)
}

// WriteFrame writes one length-prefixed frame payload.
func WriteFrame(w io.Writer, payload []byte) error {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame payload into buf (grown if needed) and
// returns it. Oversized frames are rejected without allocation.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(n[:])
	if size > MaxFrame {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	if uint32(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return buf, nil
}

// AppendRequestFrame appends an encoded request payload (without the
// length prefix) for rows under trace context tc to dst and returns it.
// A zero tc sends the rows untraced.
func AppendRequestFrame(dst []byte, rows []Request, tc telemetry.TraceContext) ([]byte, error) {
	if len(rows) == 0 || len(rows) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows outside [1,%d]", len(rows), MaxBatch)
	}
	dim := len(rows[0].Features)
	if dim != counters.Num {
		return nil, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+reqPrefix+len(rows)*(reqRowFixed+dim*8))...)
	b := dst[off:]
	putHeader(b, MsgDecide)
	binary.BigEndian.PutUint64(b[6:], tc.TraceID)
	binary.BigEndian.PutUint64(b[14:], tc.SpanID)
	b[22] = tc.Flags
	binary.BigEndian.PutUint16(b[23:], uint16(len(rows)))
	binary.BigEndian.PutUint16(b[25:], uint16(dim))
	p := headerLen + reqPrefix
	for _, row := range rows {
		if len(row.Features) != dim {
			return nil, fmt.Errorf("serve: ragged batch: row has %d features, want %d", len(row.Features), dim)
		}
		binary.BigEndian.PutUint32(b[p:], uint32(row.GPU))
		binary.BigEndian.PutUint32(b[p+4:], uint32(row.Cluster))
		binary.BigEndian.PutUint64(b[p+8:], math.Float64bits(row.Preset))
		p += reqRowFixed
		for _, f := range row.Features {
			binary.BigEndian.PutUint64(b[p:], math.Float64bits(f))
			p += 8
		}
	}
	return dst, nil
}

// DecodeRequestFrame parses a request payload into its rows and trace
// context. The rows reuse scratch (resized as needed) so a serving loop
// can decode without allocating; feature slices alias scratch's backing
// arrays.
func DecodeRequestFrame(payload []byte, scratch []Request) ([]Request, telemetry.TraceContext, error) {
	if err := checkHeader(payload, MsgDecide); err != nil {
		return nil, telemetry.TraceContext{}, err
	}
	if len(payload) < headerLen+reqPrefix {
		return nil, telemetry.TraceContext{}, fmt.Errorf("serve: request frame too short (%d bytes)", len(payload))
	}
	count := int(binary.BigEndian.Uint16(payload[23:]))
	dim := int(binary.BigEndian.Uint16(payload[25:]))
	if count == 0 || count > MaxBatch {
		return nil, telemetry.TraceContext{}, fmt.Errorf("serve: batch of %d rows outside [1,%d]", count, MaxBatch)
	}
	if dim != counters.Num {
		return nil, telemetry.TraceContext{}, fmt.Errorf("serve: feature dimension %d, want %d", dim, counters.Num)
	}
	if want := headerLen + reqPrefix + count*(reqRowFixed+dim*8); len(payload) != want {
		return nil, telemetry.TraceContext{}, fmt.Errorf("serve: request frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	tc := telemetry.TraceContext{
		TraceID: binary.BigEndian.Uint64(payload[6:]),
		SpanID:  binary.BigEndian.Uint64(payload[14:]),
		Flags:   payload[22],
	}
	if cap(scratch) < count {
		scratch = append(scratch[:cap(scratch)], make([]Request, count-cap(scratch))...)
	}
	scratch = scratch[:count]
	p := headerLen + reqPrefix
	for i := range scratch {
		r := &scratch[i]
		r.GPU = int32(binary.BigEndian.Uint32(payload[p:]))
		r.Cluster = int32(binary.BigEndian.Uint32(payload[p+4:]))
		r.Preset = math.Float64frombits(binary.BigEndian.Uint64(payload[p+8:]))
		p += reqRowFixed
		if cap(r.Features) < dim {
			r.Features = make([]float64, dim)
		}
		r.Features = r.Features[:dim]
		for j := range r.Features {
			r.Features[j] = math.Float64frombits(binary.BigEndian.Uint64(payload[p:]))
			p += 8
		}
	}
	return scratch, tc, nil
}

// AppendResponseFrame appends an encoded response payload to dst: the
// decisions, the echoed trace ID and this hop's latency attribution.
// Shards outside [0, 0xffff) encode as "none".
func AppendResponseFrame(dst []byte, decs []Decision, traceID uint64, hops HopTimings) ([]byte, error) {
	if len(decs) > MaxBatch {
		return nil, fmt.Errorf("serve: batch of %d rows exceeds %d", len(decs), MaxBatch)
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+respPrefix+len(decs)*respRow)...)
	b := dst[off:]
	putHeader(b, MsgDecisions)
	b[6] = StatusOK
	binary.BigEndian.PutUint64(b[7:], traceID)
	binary.BigEndian.PutUint32(b[15:], hops.QueueUs)
	binary.BigEndian.PutUint32(b[19:], hops.CoalesceUs)
	binary.BigEndian.PutUint32(b[23:], hops.DispatchUs)
	binary.BigEndian.PutUint32(b[27:], hops.InferUs)
	binary.BigEndian.PutUint16(b[31:], uint16(len(decs)))
	p := headerLen + respPrefix
	for _, d := range decs {
		if d.Level < 0 || d.Level > 255 {
			return nil, fmt.Errorf("serve: level %d does not fit the wire format", d.Level)
		}
		b[p] = byte(d.Level)
		b[p+1] = byte(d.Reason)
		if d.Rerouted {
			b[p+2] = decFlagRerouted
		}
		shard := uint16(shardNone)
		if d.Shard >= 0 && d.Shard < shardNone {
			shard = uint16(d.Shard)
		}
		binary.BigEndian.PutUint16(b[p+3:], shard)
		binary.BigEndian.PutUint64(b[p+5:], math.Float64bits(d.PredInstr))
		p += respRow
	}
	return dst, nil
}

// DecodeResponseFrame parses a response payload into its decisions
// (reusing scratch), the echoed trace ID and the hop attribution. A
// MsgError frame decodes into a *ProtoError.
func DecodeResponseFrame(payload []byte, scratch []Decision) ([]Decision, uint64, HopTimings, error) {
	if err := checkHeader(payload, MsgDecisions); err != nil {
		return nil, 0, HopTimings{}, err
	}
	if len(payload) < headerLen+respPrefix {
		return nil, 0, HopTimings{}, fmt.Errorf("serve: response frame too short (%d bytes)", len(payload))
	}
	if payload[6] != StatusOK {
		return nil, 0, HopTimings{}, fmt.Errorf("serve: server reported error status %d", payload[6])
	}
	count := int(binary.BigEndian.Uint16(payload[31:]))
	if want := headerLen + respPrefix + count*respRow; len(payload) != want {
		return nil, 0, HopTimings{}, fmt.Errorf("serve: response frame is %d bytes, want %d for %d rows", len(payload), want, count)
	}
	if cap(scratch) < count {
		scratch = make([]Decision, count)
	}
	scratch = scratch[:count]
	p := headerLen + respPrefix
	for i := range scratch {
		flags := payload[p+2]
		if flags&^decFlagRerouted != 0 {
			return nil, 0, HopTimings{}, fmt.Errorf("serve: row %d sets reserved flags %#x", i, flags)
		}
		shard := int(binary.BigEndian.Uint16(payload[p+3:]))
		if shard == shardNone {
			shard = -1
		}
		scratch[i] = Decision{
			Level:     int(payload[p]),
			Reason:    provenance.Reason(payload[p+1]),
			PredInstr: math.Float64frombits(binary.BigEndian.Uint64(payload[p+5:])),
			Shard:     shard,
			Rerouted:  flags != 0,
		}
		p += respRow
	}
	hops := HopTimings{
		QueueUs:    binary.BigEndian.Uint32(payload[15:]),
		CoalesceUs: binary.BigEndian.Uint32(payload[19:]),
		DispatchUs: binary.BigEndian.Uint32(payload[23:]),
		InferUs:    binary.BigEndian.Uint32(payload[27:]),
	}
	return scratch, binary.BigEndian.Uint64(payload[7:]), hops, nil
}

// AppendHelloFrame appends a client hello offering this Version.
func AppendHelloFrame(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen)...)
	putHeader(dst[off:], MsgHello)
	return dst
}

// DecodeHelloFrame validates a client hello. A hello offering any other
// version fails with an ErrCodeVersion *ProtoError.
func DecodeHelloFrame(payload []byte) error {
	if err := checkHeader(payload, MsgHello); err != nil {
		return err
	}
	if len(payload) != headerLen {
		return fmt.Errorf("serve: hello frame is %d bytes, want %d", len(payload), headerLen)
	}
	return nil
}

// AppendHelloAckFrame appends the server's answer to a hello.
func AppendHelloAckFrame(dst []byte, h Hello) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+ackBody)...)
	b := dst[off:]
	putHeader(b, MsgHelloAck)
	if h.Router {
		b[6] = HelloFlagRouter
	}
	binary.BigEndian.PutUint16(b[7:], uint16(h.Shards))
	binary.BigEndian.PutUint32(b[9:], uint32(h.Generation))
	return dst
}

// DecodeHelloAckFrame parses a server hello-ack. A MsgError frame decodes
// into a *ProtoError, so a refused hello surfaces as a typed error.
func DecodeHelloAckFrame(payload []byte) (Hello, error) {
	if err := checkHeader(payload, MsgHelloAck); err != nil {
		return Hello{}, err
	}
	if len(payload) != headerLen+ackBody {
		return Hello{}, fmt.Errorf("serve: hello-ack frame is %d bytes, want %d", len(payload), headerLen+ackBody)
	}
	if payload[6]&^HelloFlagRouter != 0 {
		return Hello{}, fmt.Errorf("serve: hello-ack sets reserved flags %#x", payload[6])
	}
	return Hello{
		Version:    Version,
		Router:     payload[6] != 0,
		Tracing:    true,
		Shards:     int(binary.BigEndian.Uint16(payload[7:])),
		Generation: int(binary.BigEndian.Uint32(payload[9:])),
	}, nil
}

// AppendErrorFrame appends a structured protocol-error frame; messages
// longer than 512 bytes are truncated.
func AppendErrorFrame(dst []byte, code int, msg string) []byte {
	if len(msg) > maxErrMsg {
		msg = msg[:maxErrMsg]
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerLen+4+len(msg))...)
	b := dst[off:]
	putHeader(b, MsgError)
	binary.BigEndian.PutUint16(b[6:], uint16(code))
	binary.BigEndian.PutUint16(b[8:], uint16(len(msg)))
	copy(b[10:], msg)
	return dst
}

// DecodeErrorFrame parses a MsgError payload into the refusal it
// carries. The error result reports a payload that is not a well-formed
// error frame.
func DecodeErrorFrame(payload []byte) (*ProtoError, error) {
	if err := checkHeader(payload, MsgError); err != nil {
		return nil, err
	}
	if len(payload) < headerLen+4 {
		return nil, fmt.Errorf("serve: error frame too short (%d bytes)", len(payload))
	}
	n := int(binary.BigEndian.Uint16(payload[8:]))
	if n > maxErrMsg || len(payload) != headerLen+4+n {
		return nil, fmt.Errorf("serve: error frame is %d bytes with a %d-byte message", len(payload), n)
	}
	return &ProtoError{Code: int(binary.BigEndian.Uint16(payload[6:])), Msg: string(payload[10:])}, nil
}
