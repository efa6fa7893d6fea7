package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"ssmdvfs/internal/compress"
	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/experiments"
	"ssmdvfs/internal/gpusim"
	"ssmdvfs/internal/isa"
	"ssmdvfs/internal/kernels"
)

// The offline pipeline: (a) datagen.RunSuite at the quick configuration,
// one kernel per call with one worker, on six training kernels; (b) the
// uncompressed training, then the compressed retrain and PruneModel; (c)
// a default-operating-point baseline run and an SSMDVFS run (committed
// compressed model, 10 % preset, calibration on) of every memory-bound,
// irregular and compute-bound kernel of the suite on the small GPU.
var trainKernels = []string{
	"polybench.atax", "rodinia.bfs", "parboil.spmv", // the 87–91 %-idle kernels
	"polybench.gemm", "parboil.cutcp", "rodinia.kmeans",
}

const (
	evalScale     = 1.0
	evalMaxPs     = 5_000_000_000_000
	goldenPath    = "perfbench/golden.json"
	offlineSetups = 15
	maxStatsKept  = 4096 // epoch statistics kept for the counters replay
)

// golden holds the exact outputs the offline pipeline must reproduce: any
// change that is meant only to make it faster must leave them identical.
type golden struct {
	Dataset    string      `json:"dataset_sha256"`
	Samples    int         `json:"samples"`
	Model      string      `json:"model_sha256"`
	Compressed string      `json:"compressed_sha256"`
	Eval       []evalCheck `json:"eval"`
}

// evalCheck is one eval run's gpusim.Result, its decision count and a
// digest of every EpochStats the simulator's observer saw.
type evalCheck struct {
	Kernel       string `json:"kernel"`
	Mech         string `json:"mech"`
	ExecPs       int64  `json:"exec_ps"`
	EnergyBits   string `json:"energy_pj_bits"`
	Instructions int64  `json:"instructions"`
	Epochs       int    `json:"epochs"`
	Completed    bool   `json:"completed"`
	Transitions  int    `json:"transitions"`
	Decisions    int64  `json:"decisions"`
	EpochStats   int64  `json:"epoch_stats"`
	StatsSHA256  string `json:"epoch_stats_sha256"`
}

// Eval kernel classes, the index of the per-class totals in pass.
const (
	compute  = 0
	membound = 1 // memory-bound or irregular
)

type evalKernel struct {
	name     string
	membound bool // memory-bound or irregular; compute-bound otherwise
	kernel   gpusim.Kernel
}

// offlineInputs is what set-up prepares: built kernels, the committed
// model and the goldens.
type offlineInputs struct {
	opts   experiments.PipelineOptions
	cfg    datagen.Config
	train  []isa.Kernel
	eval   []evalKernel
	model  *core.Model
	golden *golden
}

func loadOffline(b *bench) (*offlineInputs, error) {
	opts := experiments.QuickPipelineOptions()
	cfg := datagen.DefaultConfig(opts.Sim)
	cfg.BreakpointPs = opts.BreakpointPs
	cfg.MaxBreakpoints = opts.MaxBreakpoints
	cfg.ClusterStride = opts.ClusterStride
	o := &offlineInputs{opts: opts, cfg: cfg}
	for _, name := range trainKernels {
		spec, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		o.train = append(o.train, spec.Build(opts.Scale))
	}
	for _, spec := range kernels.Suite() {
		switch spec.Behaviour {
		case kernels.MemoryBound, kernels.Irregular, kernels.ComputeBound:
			o.eval = append(o.eval, evalKernel{spec.Name, spec.Behaviour != kernels.ComputeBound, spec.Build(evalScale)})
		}
	}
	m, err := core.LoadFile(b.path(modelPath))
	if err != nil {
		return nil, err
	}
	if err := m.EnsureBackends(); err != nil {
		return nil, err
	}
	o.model = m
	if !b.updateGolden {
		data, err := os.ReadFile(b.path(goldenPath))
		if err != nil {
			return nil, err
		}
		o.golden = &golden{}
		if err := json.Unmarshal(data, o.golden); err != nil {
			return nil, fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	return o, nil
}

// pass is what one run of the pipeline measured.
type pass struct {
	wall          time.Duration
	opUs          []float64 // wall time of every op (RunSuite, Train, PruneModel, Run call)
	datagen       time.Duration
	train, comp   time.Duration
	runS          [2]time.Duration // host time in Simulator.Run, by kernel class
	epochs        [2]int64         // cluster-epochs observed
	instr, cycles [2]int64
	decisions     int64
	fallbacks     int64
	decideTime    time.Duration
	stats         []gpusim.EpochStats
	got           golden
}

// runOffline is the offline-pipeline workload: a batch job with one
// worker whose every output must match the goldens kept with the
// benchmark. The seed sets the order the kernels are run in, which must
// not change any output.
func runOffline(b *bench) error {
	o, setupS, err := medianSetup(offlineSetups, func() (*offlineInputs, error) { return loadOffline(b) }, func(*offlineInputs) {})
	if err != nil {
		return err
	}
	if !b.trace {
		p := runPipeline(b, o, false)
		if b.updateGolden {
			return writeGolden(b, p.got)
		}
		ops := sortedCopy(p.opUs)
		b.set("latency_p50_us", quantile(ops, 0.50))
		b.set("throughput", float64(len(p.opUs))/p.wall.Seconds())
		b.set("setup_s", setupS)
		b.set("ok_ratio", float64(b.attempted-b.failed)/float64(b.attempted))
		return nil
	}
	// The traced run measures the pipeline untraced and then traced, so
	// the tracing overhead comes from the same process.
	plain := runPipeline(b, o, false)
	mem := startMem()
	p := runPipeline(b, o, true)
	_, pauseMs := mem.end()
	b.set("offline_s", p.wall.Seconds())
	b.set("trace.overhead_ratio", p.wall.Seconds()/plain.wall.Seconds())
	if p.runS[membound] > 0 {
		b.set("sim_epochs_per_s.membound", float64(p.epochs[membound])/p.runS[membound].Seconds())
	}
	if p.runS[compute] > 0 {
		b.set("sim_epochs_per_s.compute", float64(p.epochs[compute])/p.runS[compute].Seconds())
	}
	b.set("gpusim.run_s.membound", p.runS[membound].Seconds())
	b.set("gpusim.run_s.compute", p.runS[compute].Seconds())
	b.set("gpusim.epochs", float64(p.epochs[compute]+p.epochs[membound]))
	for class, name := range map[int]string{compute: "gpusim.ipc.compute", membound: "gpusim.ipc.membound"} {
		if p.cycles[class] > 0 {
			b.set(name, float64(p.instr[class])/float64(p.cycles[class]))
		}
	}
	b.set("datagen.s", p.datagen.Seconds())
	b.set("datagen.samples", float64(p.got.Samples))
	b.set("datagen.samples_per_s", float64(p.got.Samples)/p.datagen.Seconds())
	b.set("train.s", p.train.Seconds())
	b.set("compress.s", p.comp.Seconds())
	if p.decisions > 0 {
		b.set("controller.ns_per_decision", float64(p.decideTime.Nanoseconds())/float64(p.decisions))
	}
	b.set("controller.decisions", float64(p.decisions))
	b.set("controller.fallbacks", float64(p.fallbacks))
	b.set("runtime.gc_pause_ms", pauseMs)
	ds, err := datagen.LoadFile(b.path(datasetPath))
	if err != nil {
		return err
	}
	return replayLayers(b, o.model, ds.FeatureMatrix(), p.stats)
}

// runPipeline runs stages (a), (b) and (c) once, counting every op in
// b.attempted and b.failed and checking the outputs against the goldens.
func runPipeline(b *bench, o *offlineInputs, traced bool) *pass {
	sp := b.spans
	if !traced {
		sp = nil
	}
	p := &pass{}
	rng := rand.New(rand.NewSource(b.seed))
	tr := sp.newTrace()
	start := time.Now()
	root := sp.begin(tr, 0, "offline.pipeline", start)
	op := func(parent int32, name string, f func() error, attrs ...string) bool {
		t := time.Now()
		id := sp.begin(tr, parent, name, t, attrs...)
		err := f()
		end := time.Now()
		sp.finish(id, end)
		p.opUs = append(p.opUs, us(end.Sub(t)))
		b.attempted++
		if err != nil {
			b.failed++
			b.warn("%s %v: %v", name, attrs, err)
			return false
		}
		return true
	}

	// (a) datagen, one kernel per call in seed order; the dataset is
	// merged in the fixed kernel order.
	t := time.Now()
	stage := sp.begin(tr, root, "offline.datagen", t)
	parts := make([]*datagen.Dataset, len(o.train))
	for _, i := range rng.Perm(len(o.train)) {
		op(stage, "datagen.RunSuite", func() (err error) {
			parts[i], err = datagen.RunSuite(datagen.SuiteOptions{Config: o.cfg, Kernels: []isa.Kernel{o.train[i]}, Workers: 1})
			return err
		}, "kernel", o.train[i].Name)
	}
	p.datagen = time.Since(t)
	sp.finish(stage, time.Now())
	ds := datagen.Merge(parts)
	p.got.Samples = len(ds.Samples)
	p.got.Dataset = digest(ds.Save)

	// (b) training, compressed retrain and pruning.
	t = time.Now()
	stage = sp.begin(tr, root, "offline.train", t)
	var small *core.Model
	op(stage, "core.Train", func() error {
		m, _, err := core.Train(ds, o.opts.TrainOpts)
		if err == nil {
			p.got.Model = digest(m.Save)
		}
		return err
	})
	p.train = time.Since(t)
	sp.finish(stage, time.Now())
	t = time.Now()
	stage = sp.begin(tr, root, "offline.compress", t)
	smallOpts := o.opts.TrainOpts
	smallOpts.Arch = core.PaperCompressed()
	op(stage, "core.Train", func() (err error) {
		small, _, err = core.Train(ds, smallOpts)
		return err
	}, "arch", "compressed")
	if small != nil {
		op(stage, "compress.PruneModel", func() error {
			m, _, err := compress.PruneModel(small, ds, o.opts.PruneOpts)
			if err == nil {
				p.got.Compressed = digest(m.Save)
			}
			return err
		})
	}
	p.comp = time.Since(t)
	sp.finish(stage, time.Now())

	// (c) closed-loop evaluation, kernels in seed order; results are
	// recorded in the fixed kernel order.
	stage = sp.begin(tr, root, "offline.eval", time.Now())
	checks := make([]evalCheck, 2*len(o.eval))
	for _, i := range rng.Perm(len(o.eval)) {
		ek := o.eval[i]
		for j, mech := range []string{"baseline", "ssmdvfs"} {
			checks[2*i+j] = p.simulate(b, o, ek, mech, op, stage, tr, sp)
		}
	}
	sp.finish(stage, time.Now())
	p.got.Eval = checks
	p.wall = time.Since(start)
	sp.finish(root, time.Now())
	if o.golden != nil {
		compareGolden(b, o.golden, &p.got)
	}
	return p
}

// simulate runs one eval kernel under one mechanism and returns what the
// goldens check.
func (p *pass) simulate(b *bench, o *offlineInputs, ek evalKernel, mech string, op func(int32, string, func() error, ...string) bool, parent int32, tr uint64, sp *spanLog) evalCheck {
	chk := evalCheck{Kernel: ek.name, Mech: mech}
	class := compute
	if ek.membound {
		class = membound
	}
	h := sha256.New()
	var buf []byte
	op(parent, "offline.simulate", func() error {
		sim, err := gpusim.New(o.opts.Sim, ek.kernel)
		if err != nil {
			return err
		}
		sim.SetObserver(func(s gpusim.EpochStats) {
			buf = appendStats(buf[:0], s)
			h.Write(buf)
			chk.EpochStats++
			p.instr[class] += s.Instructions
			p.cycles[class] += s.Cycles
			if sp != nil && len(p.stats) < maxStatsKept {
				p.stats = append(p.stats, s)
			}
		})
		var ctrl *countingController
		if mech == "ssmdvfs" {
			inner, err := experiments.NewSSMDVFS(o.model, preset, o.opts.Sim, true)
			if err != nil {
				return err
			}
			ctrl = &countingController{Controller: inner, sp: sp, trace: tr}
			sim.SetController(ctrl)
		}
		t := time.Now()
		runID := sp.begin(tr, parent, "gpusim.Simulator.Run", t)
		if ctrl != nil {
			ctrl.parent = runID
		}
		r := sim.Run(evalMaxPs)
		p.runS[class] += time.Since(t)
		sp.finish(runID, time.Now())
		p.epochs[class] += chk.EpochStats
		chk.ExecPs, chk.Instructions, chk.Epochs = r.ExecTimePs, r.Instructions, r.Epochs
		chk.EnergyBits = fmt.Sprintf("%016x", math.Float64bits(r.EnergyPJ))
		chk.Completed, chk.Transitions = r.Completed, r.Transitions
		if ctrl != nil {
			chk.Decisions = ctrl.n
			p.decisions += ctrl.n
			p.decideTime += ctrl.busy
			if fb, ok := ctrl.Controller.(interface{ Fallbacks() int64 }); ok {
				p.fallbacks += fb.Fallbacks()
			}
		}
		if !r.Completed {
			return fmt.Errorf("run did not complete within %d ps", int64(evalMaxPs))
		}
		return nil
	}, "kernel", ek.name, "mech", mech)
	chk.StatsSHA256 = hex.EncodeToString(h.Sum(nil))
	return chk
}

// countingController counts the controller's decisions and, in traced
// runs, times each one and records it as a span under the Run call.
type countingController struct {
	gpusim.Controller
	n      int64
	busy   time.Duration
	sp     *spanLog
	trace  uint64
	parent int32
}

func (c *countingController) Decide(s gpusim.EpochStats) int {
	c.n++
	if c.sp == nil {
		return c.Controller.Decide(s)
	}
	t := time.Now()
	level := c.Controller.Decide(s)
	end := time.Now()
	c.busy += end.Sub(t)
	c.sp.add(c.trace, c.parent, "core.Controller.Decide", t, end)
	return level
}

// appendStats encodes every field of one EpochStats for the digest.
func appendStats(buf []byte, s gpusim.EpochStats) []byte {
	le := binary.LittleEndian
	for _, v := range []int64{int64(s.Cluster), int64(s.Epoch), s.StartPs, s.EndPs, int64(s.Level)} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	buf = le.AppendUint64(buf, math.Float64bits(s.OP.VoltageV))
	buf = le.AppendUint64(buf, math.Float64bits(s.OP.FrequencyHz))
	for _, v := range s.OpCounts {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, v := range []int64{s.Instructions, s.Cycles, s.ActiveCycles,
		s.StallMemLoad, s.StallMemOther, s.StallCompute, s.StallControl, s.ReadyNotIssued, s.DVFSStall,
		s.L1ReadHits, s.L1ReadMisses, s.L1WriteAccesses, s.L2Accesses, s.L2Hits, s.L2Misses,
		s.DRAMLines, s.SharedLoads, s.Branches, int64(s.WarpsActive)} {
		buf = le.AppendUint64(buf, uint64(v))
	}
	for _, v := range []float64{s.DynPowerW, s.StaticPowerW, s.EnergyPJ} {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// digest returns the SHA-256 of what save writes.
func digest(save func(w io.Writer) error) string {
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		return "save failed: " + err.Error()
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// compareGolden fails the run on any output that differs from the golden.
func compareGolden(b *bench, want, got *golden) {
	if got.Dataset != want.Dataset || got.Samples != want.Samples {
		b.fail("dataset: %d samples sha256 %s, golden %d samples %s", got.Samples, got.Dataset, want.Samples, want.Dataset)
	}
	if got.Model != want.Model {
		b.fail("trained model sha256 %s, golden %s", got.Model, want.Model)
	}
	if got.Compressed != want.Compressed {
		b.fail("compressed model sha256 %s, golden %s", got.Compressed, want.Compressed)
	}
	if len(got.Eval) != len(want.Eval) {
		b.fail("%d eval runs, golden has %d", len(got.Eval), len(want.Eval))
		return
	}
	for i := range got.Eval {
		if got.Eval[i] != want.Eval[i] {
			b.fail("eval run %s/%s = %+v, golden %+v", got.Eval[i].Kernel, got.Eval[i].Mech, got.Eval[i], want.Eval[i])
		}
	}
}

func writeGolden(b *bench, g golden) error {
	if b.failed > 0 {
		return fmt.Errorf("not writing goldens from a run with %d failed ops", b.failed)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.path(goldenPath), append(data, '\n'), 0o644)
}
