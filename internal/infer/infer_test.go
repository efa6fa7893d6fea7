package infer

import (
	"math/rand"
	"sync"
	"testing"

	"ssmdvfs/internal/nn"
)

func testMLP(t testing.TB, sizes []int, seed int64) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(sizes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFloat64BackendMatchesMLP pins the float64 backend to nn.Forward bit
// for bit, on both entry points.
func TestFloat64BackendMatchesMLP(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 1)
	b, err := New(m, KindFloat64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var x nn.Batch
	x.Reset(13, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	var s Scratch
	y := b.ForwardBatch(&x, &s)
	for r := 0; r < x.Rows; r++ {
		want := m.Forward(x.Row(r))
		for k, v := range y.Row(r) {
			if v != want[k] {
				t.Fatalf("batch row %d out %d: %g != %g", r, k, v, want[k])
			}
		}
		got := b.Forward(x.Row(r), &s)
		for k, v := range got {
			if v != want[k] {
				t.Fatalf("row %d out %d: %g != %g", r, k, v, want[k])
			}
		}
	}
}

// TestNewRejectsNonFloat64 pins the single served numeric path: any
// kind other than float64, int8 included, fails to build.
func TestNewRejectsNonFloat64(t *testing.T) {
	m := testMLP(t, []int{4, 8, 4}, 9)
	for _, kind := range []Kind{KindInt8, "", "bf16"} {
		if _, err := New(m, kind); err == nil {
			t.Errorf("New(%q) accepted", kind)
		}
	}
}

func TestBackendSteadyStateAllocs(t *testing.T) {
	b, err := New(testMLP(t, []int{6, 20, 20, 6}, 11), KindFloat64)
	if err != nil {
		t.Fatal(err)
	}
	var x nn.Batch
	x.Reset(16, 6)
	for i := range x.Data {
		x.Data[i] = float64(i%7) - 3
	}
	var s Scratch
	row := make([]float64, 6)
	b.ForwardBatch(&x, &s)
	b.Forward(row, &s)
	if allocs := testing.AllocsPerRun(200, func() { b.ForwardBatch(&x, &s) }); allocs > 0 {
		t.Errorf("ForwardBatch allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { b.Forward(row, &s) }); allocs > 0 {
		t.Errorf("Forward allocates %.1f objects/op, want 0", allocs)
	}
}

// TestConcurrentBackendParity hammers one kernel from 16 goroutines with
// per-goroutine scratch, asserting bit-identical outputs to a serial
// pass. With -race this proves kernels are read-only after construction.
func TestConcurrentBackendParity(t *testing.T) {
	m := testMLP(t, []int{6, 20, 20, 6}, 12)
	rng := rand.New(rand.NewSource(13))
	var x nn.Batch
	x.Reset(37, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	b, err := New(m, KindFloat64)
	if err != nil {
		t.Fatal(err)
	}
	var ws Scratch
	ref := b.ForwardBatch(&x, &ws)
	want := make([]float64, len(ref.Data))
	copy(want, ref.Data)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Scratch
			for rep := 0; rep < 8; rep++ {
				if (g+rep)%2 == 0 {
					y := b.ForwardBatch(&x, &s)
					for i, v := range y.Data {
						if v != want[i] {
							t.Errorf("goroutine %d batch elem %d: %g != %g", g, i, v, want[i])
							return
						}
					}
				} else {
					for r := 0; r < x.Rows; r++ {
						got := b.Forward(x.Row(r), &s)
						wr := want[r*ref.Cols : (r+1)*ref.Cols]
						for k, v := range got {
							if v != wr[k] {
								t.Errorf("goroutine %d row %d out %d: %g != %g", g, r, k, v, wr[k])
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
