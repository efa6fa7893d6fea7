package provenance

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Recorder is the flight recorder: a fixed-capacity ring buffer of the
// last N decision Records. Record is allocation-free — writers take a
// generation with one atomic increment, claim its slot by CAS on a
// per-slot generation stamp (a seqlock), and publish the record as a
// sequence of plain atomic word stores, so any number of decision
// threads can record concurrently while snapshot readers iterate, with
// no mutex anywhere and nothing for the race detector to flag.
//
// A reader that observes a slot mid-write (odd stamp, or a stamp that
// changed across the read) skips it. A writer claims its slot only from
// an even stamp of an older generation, so one slot never has two
// writers: a writer whose slot already carries a newer generation drops
// its record (it was superseded before it could publish), and one whose
// slot is still being written by an older generation — possible only
// when the ring wraps completely within one in-flight Record call —
// yields until that write is published.
type Recorder struct {
	head  atomic.Uint64   // total records ever written
	seqs  []atomic.Uint64 // per-slot generation stamp: 2g+1 writing, 2g+2 complete
	words []atomic.Uint64 // cap × recWords flat payload
}

// DefaultCapacity is the ring size used when a caller passes n <= 0.
const DefaultCapacity = 4096

// NewRecorder returns a recorder keeping the last n records (n <= 0
// takes DefaultCapacity).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Recorder{
		seqs:  make([]atomic.Uint64, n),
		words: make([]atomic.Uint64, n*recWords),
	}
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.seqs)
}

// Head returns the total number of records ever written; the ring holds
// the most recent min(Head, Cap) of them.
func (r *Recorder) Head() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Dropped returns how many records have been overwritten.
func (r *Recorder) Dropped() uint64 {
	h := r.Head()
	if c := uint64(r.Cap()); h > c {
		return h - c
	}
	return 0
}

// Record captures one decision. It assigns rec.Seq (1-based, monotonic
// across the recorder's lifetime), then publishes a copy of *rec into
// the ring, unless the ring has already wrapped past rec.Seq. Safe for any number of concurrent callers; a nil recorder is
// a free no-op, so hot paths need no branching at call sites beyond the
// nil check the compiler can hoist.
func (r *Recorder) Record(rec *Record) {
	if r == nil {
		return
	}
	g := r.head.Add(1) - 1
	rec.Seq = g + 1
	slot := int(g % uint64(len(r.seqs)))
	s := &r.seqs[slot]
	for {
		cur := s.Load()
		if cur > 2*g {
			return // superseded: a newer generation owns the slot
		}
		if cur&1 == 1 {
			runtime.Gosched() // an older writer is mid-publish here
			continue
		}
		if s.CompareAndSwap(cur, 2*g+1) {
			break
		}
	}
	encodeRecord(r.words[slot*recWords:(slot+1)*recWords], rec)
	s.Store(2*g + 2)
}

// Snapshot appends a consistent copy of the ring's current contents to
// dst, oldest first, and returns it. Slots being rewritten concurrently
// (or already holding a newer generation than the iteration expected)
// are skipped, so the result may hold fewer than Cap records even on a
// full ring under write load.
func (r *Recorder) Snapshot(dst []Record) []Record {
	if r == nil {
		return dst
	}
	head := r.head.Load()
	n := uint64(len(r.seqs))
	start := uint64(0)
	if head > n {
		start = head - n
	}
	var rec Record
	for g := start; g < head; g++ {
		slot := int(g % n)
		s := &r.seqs[slot]
		want := 2*g + 2
		if s.Load() != want {
			continue // mid-write or already overwritten
		}
		decodeRecord(r.words[slot*recWords:(slot+1)*recWords], &rec)
		if s.Load() != want || rec.Seq != g+1 {
			continue // torn read: the slot moved on underneath us
		}
		dst = append(dst, rec)
	}
	return dst
}

// encodeRecord publishes rec into a slot's word region with atomic
// stores only. The layout is documented at recWords.
func encodeRecord(w []atomic.Uint64, rec *Record) {
	w[0].Store(rec.Seq)
	w[1].Store(uint64(uint32(rec.Cluster))<<32 | uint64(uint32(rec.Epoch)))
	flags := uint64(uint32(rec.Level)) << 32
	flags |= uint64(rec.Reason)
	if rec.HasPredErr {
		flags |= 1 << 8
	}
	flags |= uint64(uint8(rec.NumRaw)) << 16
	flags |= uint64(uint8(rec.NumDerived)) << 24
	// NumLogits rides in bits 9..15 (MaxAux fits in 7 bits with room).
	flags |= uint64(uint8(rec.NumLogits)&0x7f) << 9
	w[2].Store(flags)
	w[3].Store(math.Float64bits(rec.Preset))
	w[4].Store(math.Float64bits(rec.EffPreset))
	w[5].Store(math.Float64bits(rec.PredInstr))
	w[6].Store(math.Float64bits(rec.PredErr))
	w[7].Store(uint64(rec.LatencyNs))
	w[8].Store(rec.TraceID)
	w[9].Store(uint64(rec.ModelGen))
	p := recScalarWords
	for i := range rec.Raw {
		w[p+i].Store(math.Float64bits(rec.Raw[i]))
	}
	p += len(rec.Raw)
	for i := range rec.Derived {
		w[p+i].Store(math.Float64bits(rec.Derived[i]))
	}
	p += len(rec.Derived)
	for i := range rec.Logits {
		w[p+i].Store(math.Float64bits(rec.Logits[i]))
	}
}

// decodeRecord is the inverse of encodeRecord, reading with atomic loads.
func decodeRecord(w []atomic.Uint64, rec *Record) {
	rec.Seq = w[0].Load()
	ce := w[1].Load()
	rec.Cluster = int32(uint32(ce >> 32))
	rec.Epoch = int32(uint32(ce))
	flags := w[2].Load()
	rec.Level = int32(uint32(flags >> 32))
	rec.Reason = Reason(flags & 0xff)
	rec.HasPredErr = flags&(1<<8) != 0
	rec.NumRaw = int32(uint8(flags >> 16))
	rec.NumDerived = int32(uint8(flags >> 24))
	rec.NumLogits = int32((flags >> 9) & 0x7f)
	rec.Preset = math.Float64frombits(w[3].Load())
	rec.EffPreset = math.Float64frombits(w[4].Load())
	rec.PredInstr = math.Float64frombits(w[5].Load())
	rec.PredErr = math.Float64frombits(w[6].Load())
	rec.LatencyNs = int64(w[7].Load())
	rec.TraceID = w[8].Load()
	rec.ModelGen = uint32(w[9].Load())
	p := recScalarWords
	for i := range rec.Raw {
		rec.Raw[i] = math.Float64frombits(w[p+i].Load())
	}
	p += len(rec.Raw)
	for i := range rec.Derived {
		rec.Derived[i] = math.Float64frombits(w[p+i].Load())
	}
	p += len(rec.Derived)
	for i := range rec.Logits {
		rec.Logits[i] = math.Float64frombits(w[p+i].Load())
	}
}
