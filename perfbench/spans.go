package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ssmdvfs/internal/telemetry"
)

// spanLog keeps the spans of a traced run in memory; they are written out
// once, when the run ends, in the repository's span JSONL format. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu     sync.Mutex
	recs   []spanRec
	traces uint64
}

// spanRec is one recorded span: the call into a layer it brackets, its
// parent (0 for a root) and the trace it belongs to, shared by every span
// of one request.
type spanRec struct {
	name       string
	trace      uint64
	parent     int32
	start, end time.Time
	attrs      []string
}

func newSpanLog() *spanLog { return &spanLog{} }

// newTrace returns a fresh trace ID (0 when l is nil).
func (l *spanLog) newTrace() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.traces++
	return l.traces
}

// add records a finished span and returns its ID, which children pass as
// their parent.
func (l *spanLog) add(trace uint64, parent int32, name string, start, end time.Time, attrs ...string) int32 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, spanRec{name: name, trace: trace, parent: parent, start: start, end: end, attrs: attrs})
	return int32(len(l.recs))
}

// begin records a span whose end is not known yet and returns its ID;
// finish sets the end. Children can name the span as their parent
// before it ends.
func (l *spanLog) begin(trace uint64, parent int32, name string, start time.Time, attrs ...string) int32 {
	return l.add(trace, parent, name, start, start, attrs...)
}

func (l *spanLog) finish(id int32, end time.Time) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs[id-1].end = end
}

// writeSpans writes the run's spans as JSONL through telemetry.Tracer, so
// `dvfsstat -spans` and `-chrome` read them, and prints each span name's
// count, total and self time (duration minus the part its children cover)
// to standard error.
func (b *bench) writeSpans(dir string) error {
	l := b.spans
	if l == nil || len(l.recs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs := l.recs
	epoch := recs[0].start
	for _, r := range recs {
		if r.start.Before(epoch) {
			epoch = r.start
		}
	}
	tr := telemetry.NewTracer(f)
	tr.SetClock(func() time.Time { return epoch })
	tr.SetSpanIDSeed(uint64(b.seed))
	started := make([]*telemetry.Span, len(recs))
	var start func(i int) *telemetry.Span
	start = func(i int) *telemetry.Span {
		if sp := started[i]; sp != nil {
			return sp
		}
		r := recs[i]
		tc := telemetry.TraceContext{TraceID: r.trace, Flags: telemetry.FlagSampled}
		if r.parent > 0 {
			tc = start(int(r.parent - 1)).Context()
		}
		started[i] = tr.StartSpanAt(tc, r.name, r.start, r.attrs...)
		return started[i]
	}
	for i := range recs {
		start(i)
	}
	for i, r := range recs {
		started[i].EndAt(r.end)
	}
	if err := tr.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	printSelfTimes(recs)
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(recs), path)
	return nil
}

// printSelfTimes prints, per span name, how many spans there were, their
// total duration and their total self time.
func printSelfTimes(recs []spanRec) {
	children := make([][]int, len(recs))
	for i, r := range recs {
		if r.parent > 0 {
			children[r.parent-1] = append(children[r.parent-1], i)
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for i, r := range recs {
		a := by[r.name]
		if a == nil {
			a = &agg{}
			by[r.name] = a
		}
		dur := r.end.Sub(r.start)
		a.n++
		a.total += dur
		a.self += dur - covered(r, recs, children[i])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-28s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(os.Stderr, "%-28s %8d %14.3f %14.3f\n", n, a.n,
			float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// covered returns how much of parent's interval the union of its children
// covers.
func covered(parent spanRec, recs []spanRec, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, e := recs[k].start, recs[k].end
		if a.Before(parent.start) {
			a = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if e.After(a) {
			ivs = append(ivs, iv{a, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}
