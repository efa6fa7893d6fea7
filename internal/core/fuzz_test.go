package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ssmdvfs/internal/counters"
	"ssmdvfs/internal/nn"
)

// fuzzSeedModel builds a small untrained model that passes Validate: two
// features, three levels, and a pruning mask on one layer so the seed
// exercises every field of the artifact header.
func fuzzSeedModel(f *testing.F) *Model {
	rng := rand.New(rand.NewSource(1))
	d, err := nn.NewMLP([]int{3, 4, 3}, rng)
	if err != nil {
		f.Fatal(err)
	}
	c, err := nn.NewMLP([]int{4, 2, 1}, rng)
	if err != nil {
		f.Fatal(err)
	}
	d.Layers[0].Mask = make([]float64, len(d.Layers[0].W))
	for i := range d.Layers[0].Mask {
		d.Layers[0].Mask[i] = float64(i % 2)
	}
	scaler := func(n int) *counters.Scaler {
		s := &counters.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
		for i := range s.Std {
			s.Mean[i] = float64(i) - 0.5
			s.Std[i] = 1 + float64(i)
		}
		return s
	}
	return &Model{
		FeatureIdx: []int{counters.IdxIPC, counters.IdxMH}, Levels: 3,
		Decision: d, Calibrator: c,
		DecisionScaler: scaler(3), CalibScaler: scaler(4),
		TargetScale: 1e4, PresetSamples: 2,
		Lineage: Lineage{Generation: 2, Parent: 1, Source: SourceOffline, Refits: 1},
	}
}

// FuzzLoadModel feeds arbitrary bytes to the artifact loader. Load and
// Validate must never panic, and every model that passes both must save
// to bytes that load and save back to the very same bytes.
func FuzzLoadModel(f *testing.F) {
	m := fuzzSeedModel(f)
	var seed bytes.Buffer
	if err := m.Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(bytes.Replace(seed.Bytes(), []byte(`"preset_samples":`), []byte(`"backend":"int8","preset_samples":`), 1))
	for _, c := range []string{``, `{}`, `{"levels":6,"target_scale":1}`} {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil || m.Validate() != nil {
			return
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("saved model fails validation: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save is not byte-stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
