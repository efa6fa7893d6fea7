package main

import (
	"fmt"
	"math"
	"math/rand"

	"ssmdvfs/internal/core"
	"ssmdvfs/internal/datagen"
	"ssmdvfs/internal/ledger"
	"ssmdvfs/internal/provenance"
	"ssmdvfs/internal/serve"
)

// The committed inputs every serving workload reads: the oracle dataset
// whose counter rows become requests, and the deployed compressed model,
// opened read-only.
const (
	datasetPath = "testdata/bench-cache/dataset.json"
	modelPath   = "testdata/bench-cache/compressed.json"
)

// Serving shape: 16 simulated GPUs of 24 clusters each report every epoch
// with the 10 % performance-loss preset.
const (
	numGPUs     = 16
	numClusters = 24
	numKeys     = numGPUs * numClusters
	preset      = 0.10
	rowsPerKey  = 64 // distinct epochs per key before its sequence repeats
)

// answer is what the model must say for one dataset row at the preset.
type answer struct {
	level int
	pred  float64
}

// inputs is the generated request stream of one serving run: for every
// (gpu, cluster) key a seeded sequence of dataset rows, and the in-process
// core.Inference answer for every dataset row.
type inputs struct {
	model  *core.Model
	rows   [][]float64 // dataset counter rows
	oracle []answer    // oracle[i] answers rows[i]
	seq    [numKeys][rowsPerKey]int32
}

// loadInputs loads and validates the model, derives the oracle answers
// row by row through core.Inference, and samples each key's row sequence
// from the seed.
func loadInputs(b *bench) (*inputs, error) {
	m, err := serve.LoadModel(b.path(modelPath), 0)
	if err != nil {
		return nil, err
	}
	if err := m.EnsureBackends(); err != nil {
		return nil, err
	}
	ds, err := datagen.LoadFile(b.path(datasetPath))
	if err != nil {
		return nil, err
	}
	if len(ds.Samples) == 0 {
		return nil, fmt.Errorf("%s has no samples", datasetPath)
	}
	in := &inputs{model: m, rows: ds.FeatureMatrix()}
	in.oracle = make([]answer, len(in.rows))
	inf := core.NewInference(m)
	for i, row := range in.rows {
		level, pred := inf.Decide(row, preset)
		in.oracle[i] = answer{level, pred}
	}
	rng := rand.New(rand.NewSource(b.seed))
	for k := range in.seq {
		for e := range in.seq[k] {
			in.seq[k][e] = int32(rng.Intn(len(in.rows)))
		}
	}
	return in, nil
}

// rowFor returns the dataset row index a key reports at an epoch.
func (in *inputs) rowFor(gpu, cluster, epoch int) int32 {
	return in.seq[gpu*numClusters+cluster][epoch%rowsPerKey]
}

// request builds the keyed request for one dataset row.
func (in *inputs) request(gpu, cluster int, row int32) serve.Request {
	return serve.Request{Preset: preset, Features: in.rows[row], GPU: int32(gpu), Cluster: int32(cluster)}
}

// verdict classifies one returned decision against the oracle.
type verdict int

const (
	verdictOK       verdict = iota // the model's answer, bit-equal to the oracle
	verdictNotModel                // answered by shed, fallback, deadline or rejection: a failed op
	verdictWrong                   // claims the model but differs from it: a correctness failure
)

func (in *inputs) check(row int32, d serve.Decision) verdict {
	if d.Reason != provenance.ReasonModel {
		return verdictNotModel
	}
	want := in.oracle[row]
	if d.Level != want.level || math.Float64bits(d.PredInstr) != math.Float64bits(want.pred) {
		return verdictWrong
	}
	return verdictOK
}

// armSinks arms every observability sink on an engine the way
// `ssmdvfsd -flightrec 4096 -ledger` does, plus prediction feedback:
// flight recorder, drift monitor, self-measured prediction error and the
// efficiency ledger. It is the one place the benchmark arms sinks.
func armSinks(e *serve.Engine) {
	e.EnableProvenance(4096, provenance.MonitorOptions{})
	e.EnablePredFeedback()
	e.SetLedger(ledger.New(ledger.Options{Registry: e.Telemetry()}))
}
