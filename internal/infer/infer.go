// Package infer is the serving-side inference API: every component that
// turns feature rows into logits — core.Inference, serve.Engine, the
// fleet tier's coalesced dispatch, benches — goes through a Kernel
// instead of calling nn.MLP methods directly. There is one numeric path,
// the float64 reference (nn.ForwardScratch / nn.ForwardBatch); batching
// rows into one ForwardBatch call is where serving throughput comes from.
// Kernels are immutable once built and safe for any number of concurrent
// callers; all mutable state lives in the per-goroutine Scratch.
package infer

import (
	"fmt"

	"ssmdvfs/internal/nn"
)

// Kind names an inference numeric format. Only KindFloat64 is served;
// KindInt8 remains as a name for callers that still ask for it and get
// an error back. The paper's int8 numerics live in internal/quant.
type Kind string

const (
	KindFloat64 Kind = "float64"
	KindInt8    Kind = "int8"
)

// Scratch holds a kernel's per-layer activations for the row and batch
// paths. A Scratch belongs to one goroutine at a time; kernels
// themselves are read-only and shared.
type Scratch struct {
	row   nn.Scratch
	batch nn.BatchScratch
}

// Kernel runs float64 inference for one network. Forward and
// ForwardBatch return slices/batches aliasing s, valid until the next
// call with the same Scratch. Output row r of ForwardBatch always
// corresponds to input row r, and equals what Forward would produce for
// that row, bit for bit.
type Kernel struct {
	m *nn.MLP
}

// New builds a kernel over m. Any kind other than KindFloat64 is an
// error. m must not be mutated while the kernel is in use.
func New(m *nn.MLP, kind Kind) (*Kernel, error) {
	if kind != KindFloat64 {
		return nil, fmt.Errorf("infer: no %q kernel (only %q is served)", kind, KindFloat64)
	}
	return &Kernel{m: m}, nil
}

func (k *Kernel) Forward(x []float64, s *Scratch) []float64 {
	return k.m.ForwardScratch(x, &s.row)
}

func (k *Kernel) ForwardBatch(x *nn.Batch, s *Scratch) *nn.Batch {
	return k.m.ForwardBatch(x, &s.batch)
}
