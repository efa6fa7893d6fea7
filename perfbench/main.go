// Command perfbench is the repository's benchmark. One invocation runs one
// workload with one seed and prints, as its last line of standard output,
// a JSON object with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload fleet-r24k --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics (latency, throughput,
// set-up time, peak memory, success ratio); with --trace 1 the same workload
// runs with spans recorded around every call the benchmark makes into a
// layer, and the metrics are the per-layer ones. The whole system under test
// runs inside this process on loopback. See README.md for the workloads, the
// metric definitions and which layer metric should move which end-to-end
// metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runLimit bounds one run, set-up and replays included; spanDir, relative
// to the checkout root, receives the span files of traced runs.
const (
	runLimit = 170 * time.Second
	spanDir  = ".bench_out"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units. Each workload defines what an op is (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_us", "us"},
	{"throughput", "op/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer lists the per-layer metrics every traced run reports. A layer
// the workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"offline_s", "s"},
	{"sim_epochs_per_s.membound", "epochs/s"},
	{"sim_epochs_per_s.compute", "epochs/s"},
	{"gpusim.run_s.membound", "s"},
	{"gpusim.run_s.compute", "s"},
	{"gpusim.epochs", "count"},
	{"gpusim.ipc.membound", "IPC"},
	{"gpusim.ipc.compute", "IPC"},
	{"datagen.s", "s"},
	{"datagen.samples", "count"},
	{"datagen.samples_per_s", "1/s"},
	{"train.s", "s"},
	{"compress.s", "s"},
	{"controller.ns_per_decision", "ns"},
	{"controller.decisions", "count"},
	{"controller.fallbacks", "count"},
	{"counters.fromstats_ns", "ns"},
	{"infer.ns_per_row.float64.b8", "ns"},
	{"infer.ns_per_row.float64.b64", "ns"},
	{"infer.ns_per_row.int8.b8", "ns"},
	{"infer.ns_per_row.int8.b64", "ns"},
	{"inference.ns_per_row.b1", "ns"},
	{"inference.ns_per_row.b24", "ns"},
	{"inference.ns_per_row.b64", "ns"},
	{"engine.ns_per_row.bare", "ns"},
	{"engine.ns_per_row.observed", "ns"},
	{"provenance.record_ns", "ns"},
	{"provenance.monitor_ns", "ns"},
	{"ledger.observe_ns", "ns"},
	{"transport.self_us.p50", "us"},
	{"transport.self_us.p99", "us"},
	{"router.queue_us.p50", "us"},
	{"router.queue_us.p99", "us"},
	{"router.coalesce_us.p50", "us"},
	{"router.coalesce_us.p99", "us"},
	{"router.dispatch_us.p50", "us"},
	{"router.dispatch_us.p99", "us"},
	{"replica.infer_us.p50", "us"},
	{"replica.infer_us.p99", "us"},
	{"network_us.p50", "us"},
	{"network_us.p99", "us"},
	{"router.rows_per_dispatch", "rows"},
	{"router.shed_rows", "count"},
	{"router.rerouted_rows", "count"},
	{"runtime.alloc_bytes_per_decision", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.lateness_us.p99", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// bench is the state one run shares across its phases.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: inputs are read relative to it

	// updateGolden makes offline-pipeline rewrite its goldens from the
	// run instead of checking them.
	updateGolden bool

	spans *spanLog // nil in untraced runs

	attempted, failed int64
	problems          []string // correctness failures; any one fails the run
	metrics           map[string]metric
	warnings          []string
}

// fail records a correctness failure. A failed check is never counted as
// a slow op: it fails the whole run.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
}

// warn records a note printed to standard error at the end of the run.
func (b *bench) warn(format string, args ...any) {
	b.warnings = append(b.warnings, fmt.Sprintf(format, args...))
}

// set stores one metric under a name the benchmark declares.
func (b *bench) set(name string, v float64) {
	b.metrics[name] = metric{Value: v}
}

// path resolves a repository file against the checkout root.
func (b *bench) path(rel string) string { return filepath.Join(b.root, rel) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"fleet-r24k":       func(b *bench) error { return runFleet(b, 1000) },
	"fleet-r48k":       func(b *bench) error { return runFleet(b, 2000) },
	"replica-observed": runReplica,
	"offline-pipeline": runOffline,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: fleet-r24k, fleet-r48k, replica-observed or offline-pipeline")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 15, "how long the serving workloads measure")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		golden   = flag.Bool("update-golden", false, "offline-pipeline: rewrite perfbench/golden.json from this run instead of checking it")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	b := &bench{
		workload:     *workload,
		seed:         *seed,
		seconds:      time.Duration(*seconds * float64(time.Second)),
		trace:        *trace == 1,
		updateGolden: *golden,
		root:         root,
		metrics:      make(map[string]metric),
	}
	if b.trace {
		b.spans = newSpanLog()
	}
	// A run that hangs (a reply that never comes) must still end, without
	// a result, inside the time a run is allowed.
	time.AfterFunc(runLimit, func() { fatalf("%s: still running after %v", b.workload, runLimit) })
	if err := run(b); err != nil {
		fatalf("%s: %v", b.workload, err)
	}
	if !b.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			fatalf("reading peak RSS: %v", err)
		}
		b.set("rss_peak_mb", rss)
	}
	if b.trace {
		if err := b.writeSpans(spanDir); err != nil {
			fatalf("writing spans: %v", err)
		}
	}
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metric, len(want))}
	for _, m := range want {
		res.Metrics[m.name] = metric{Value: b.metrics[m.name].Value, Unit: m.unit}
	}
	var extra []string
	for name := range b.metrics {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		fatalf("undeclared metrics %v", extra)
	}
	for _, w := range b.warnings {
		fmt.Fprintln(os.Stderr, "perfbench: warning:", w)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	if res.Attempted < 1 {
		fatalf("no ops attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memDelta measures allocation and GC pause over a timed section.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// end returns bytes allocated and GC pause time (ms) since startMem.
func (d *memDelta) end() (allocBytes float64, pauseMs float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.TotalAlloc - d.start.TotalAlloc), float64(now.PauseTotalNs-d.start.PauseTotalNs) / 1e6
}

// medianSetup runs setup n times, keeping the last instance and tearing
// the others down, and returns the median wall time. It collects garbage
// between set-ups and before returning, so one set-up's leftovers neither
// slow the next nor land in the timed run.
func medianSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var inst T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(inst)
			runtime.GC()
		}
		start := time.Now()
		var err error
		inst, err = setup()
		if err != nil {
			return inst, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return inst, median(times), nil
}
