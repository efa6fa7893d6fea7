package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestDecideBatchMatchesRowAtATime pins the batched decision path to
// per-row Decide, bit for bit, across batch sizes that hit the tile body
// and the remainder loop.
func TestDecideBatchMatchesRowAtATime(t *testing.T) {
	m := trainedModel(t, 31)
	inf := NewInference(m)
	ref := NewInference(m)
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 4, 5, 8, 31, 64} {
		feats := make([][]float64, n)
		presets := make([]float64, n)
		inf.BeginBatch(n)
		for i := 0; i < n; i++ {
			feats[i] = randomFeatures(rng)
			presets[i] = rng.Float64() * 0.3
			inf.SetBatchRow(i, feats[i], presets[i])
		}
		inf.DecideBatch()
		if inf.BatchLen() != n {
			t.Fatalf("n=%d: BatchLen %d", n, inf.BatchLen())
		}
		for i := 0; i < n; i++ {
			wantLevel, wantPred := ref.Decide(feats[i], presets[i])
			if inf.BatchLevel(i) != wantLevel || inf.BatchPredInstr(i) != wantPred {
				t.Fatalf("n=%d row %d: batch (%d, %g) != row (%d, %g)",
					n, i, inf.BatchLevel(i), inf.BatchPredInstr(i), wantLevel, wantPred)
			}
			wantLogits := ref.Logits()
			gotLogits := inf.BatchLogits(i)
			for k := range wantLogits {
				if gotLogits[k] != wantLogits[k] {
					t.Fatalf("n=%d row %d logit %d: %g != %g", n, i, k, gotLogits[k], wantLogits[k])
				}
			}
			wantRow := ref.DecisionRow()
			gotRow := inf.BatchDerived(i)
			for k := range wantRow {
				if gotRow[k] != wantRow[k] {
					t.Fatalf("n=%d row %d derived %d: %g != %g", n, i, k, gotRow[k], wantRow[k])
				}
			}
		}
	}
}

func TestDecideBatchSteadyStateAllocs(t *testing.T) {
	m := trainedModel(t, 32)
	inf := NewInference(m)
	rng := rand.New(rand.NewSource(9))
	const n = 32
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = randomFeatures(rng)
	}
	run := func() {
		inf.BeginBatch(n)
		for i := 0; i < n; i++ {
			inf.SetBatchRow(i, feats[i], 0.1)
		}
		inf.DecideBatch()
	}
	run() // grow the buffers
	if allocs := testing.AllocsPerRun(200, run); allocs > 0 {
		t.Fatalf("DecideBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLegacyBackendFieldLoads: artifacts from before the single numeric
// path may still carry a "backend" header field naming int8. They load,
// serve float64, and re-save without the field.
func TestLegacyBackendFieldLoads(t *testing.T) {
	m := trainedModel(t, 34)
	var buf strings.Builder
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(buf.String(), `"preset_samples":`, `"backend":"int8","preset_samples":`, 1)
	if legacy == buf.String() {
		t.Fatal("test did not find where to insert the legacy backend field")
	}
	got, err := Load(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	feats := randomFeatures(rand.New(rand.NewSource(11)))
	wl, wp := NewInference(m).Decide(feats, 0.1)
	if l, p := NewInference(got).Decide(feats, 0.1); l != wl || p != wp {
		t.Fatalf("legacy artifact decided (%d, %g), want float64 (%d, %g)", l, p, wl, wp)
	}
	var again strings.Builder
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatal("re-saved legacy artifact differs from the original save")
	}
	if cp := got.Clone(); cp.bk != nil {
		t.Fatal("Clone carried the kernel cache across")
	}
}

// TestConcurrentLazyBackendBuild binds 16 fresh Inference contexts to one
// unbuilt model at once; with -race this pins the package-mutex-guarded
// lazy construction.
func TestConcurrentLazyBackendBuild(t *testing.T) {
	m := trainedModel(t, 35)
	feats := randomFeatures(rand.New(rand.NewSource(10)))
	want := -1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inf := NewInference(m)
			level := inf.DecideLevel(feats, 0.1)
			mu.Lock()
			defer mu.Unlock()
			if want == -1 {
				want = level
			} else if level != want {
				t.Errorf("level %d != %d", level, want)
			}
		}()
	}
	wg.Wait()
}
