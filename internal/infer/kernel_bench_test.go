package infer

import (
	"fmt"
	"math/rand"
	"testing"

	"ssmdvfs/internal/nn"
)

// BenchmarkForwardBatchKernel isolates the batch kernel on the deployed
// decision-head shape (6→12→12→6) so kernel-only regressions are visible
// without engine overhead on top.
func BenchmarkForwardBatchKernel(b *testing.B) {
	m, err := nn.NewMLP([]int{6, 12, 12, 6}, rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	bk, err := New(m, KindFloat64)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			var x nn.Batch
			x.Reset(rows, 6)
			rng := rand.New(rand.NewSource(11))
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			var s Scratch
			bk.ForwardBatch(&x, &s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.ForwardBatch(&x, &s)
			}
		})
	}
}
