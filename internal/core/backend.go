package core

import (
	"fmt"
	"sync"

	"ssmdvfs/internal/infer"
)

// modelBackends is the built inference-kernel pair for one model. It is
// immutable after construction and shared by every Inference context
// bound to the model.
type modelBackends struct {
	decision   *infer.Kernel
	calibrator *infer.Kernel
}

// backendMu guards lazy kernel construction on every Model. Builds are
// rare (model load / hot swap); the per-decision path never takes it —
// Inference.Bind short-circuits when the bound model is unchanged.
var backendMu sync.Mutex

// EnsureBackends builds and memoizes the model's inference kernels.
// Serving paths call it before publishing a model (load, hot swap), so
// the decision path never builds one mid-batch.
func (m *Model) EnsureBackends() error {
	_, err := m.backends()
	return err
}

func (m *Model) backends() (*modelBackends, error) {
	backendMu.Lock()
	defer backendMu.Unlock()
	if m.bk != nil {
		return m.bk, nil
	}
	d, err := infer.New(m.Decision, infer.KindFloat64)
	if err != nil {
		return nil, fmt.Errorf("core: decision head: %w", err)
	}
	c, err := infer.New(m.Calibrator, infer.KindFloat64)
	if err != nil {
		return nil, fmt.Errorf("core: calibrator head: %w", err)
	}
	m.bk = &modelBackends{decision: d, calibrator: c}
	return m.bk, nil
}
