// Package logreg implements multinomial (softmax) logistic regression, the
// classifier LoCEC's Phase III uses to combine the two endpoint communities'
// classification results into a final edge label (Eq. 4 of the paper).
package logreg

import (
	"fmt"
	"math"
	"math/rand"

	"locec/internal/tensor"
)

// Config controls training.
type Config struct {
	Classes   int     // required, >= 2
	Epochs    int     // default 100
	BatchSize int     // default 32
	LR        float64 // default 0.1
	L2        float64 // weight decay (default 1e-4)
	Seed      int64
}

func (c *Config) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 100
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
}

// Model is a trained softmax regression classifier.
type Model struct {
	Classes  int
	Features int
	// W is Classes×(Features+1); the last column is the bias.
	W []float64
}

// Train fits the model with mini-batch SGD on the softmax cross-entropy.
//
// The whole training set is flattened once into an arena of [1,
// features...] rows; each shuffled mini-batch gathers its rows from the
// arena through the tensor GEMM kernels: logits are one
// MatMulABTAccGather against the bias-first weight matrix, gradients one
// MatMulATBGatherB of the (softmax − one-hot) residuals against the
// batch, each preceded by a serial warm pass over the batch's arena rows
// (rationale at the pass itself). Per dst element both kernels
// accumulate in exactly the order the retained scalar oracle
// (trainReference, in logreg_reference_test.go) uses — bias first then
// ascending features for logits, shuffled-row order for gradients — so the
// two produce bit-identical weights (pinned by logreg_equiv_test.go).
// The bias column leads rather than trails here because the scalar logits
// sum starts from the bias; the public W keeps its bias-last layout via a
// final copy.
func Train(X [][]float64, y []int, cfg Config) (*Model, error) {
	cfg.defaults()
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("logreg: Classes must be >= 2, got %d", cfg.Classes)
	}
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("logreg: bad training set (%d rows, %d labels)", len(X), len(y))
	}
	nf := len(X[0])
	for i, l := range y {
		if l < 0 || l >= cfg.Classes {
			return nil, fmt.Errorf("logreg: label %d out of range at row %d", l, i)
		}
	}
	classes := cfg.Classes
	fw := nf + 1 // row width with the leading bias column
	m := &Model{Classes: classes, Features: nf, W: make([]float64, classes*fw)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	wb := make([]float64, classes*fw) // bias-first training weights
	grads := make([]float64, classes*fw)
	// Flatten X once into an arena of [1, features...] rows in original
	// order so each epoch streams one contiguous block instead of chasing
	// per-row slice headers.
	arena := make([]float64, len(X)*fw)
	for i, x := range X {
		row := arena[i*fw : (i+1)*fw]
		row[0] = 1
		copy(row[1:], x)
	}
	z := make([]float64, cfg.BatchSize*classes)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			bs := end - start
			batch := idx[start:end]
			// A shuffled epoch visits every arena row in random order,
			// so the batch panel starts cold no matter how it is read,
			// and the GEMM's two-row streams would serialize on those
			// misses. The warm pass touches one element per cache line
			// across ALL the batch's rows first — independent loads the
			// core keeps many in flight at a time — so the gather-fused
			// kernels then run against warm lines (measured ~1.6× on the
			// combiner shape versus letting the kernels fault the rows
			// in; interleaving these loads INTO the kernel measured
			// slower — the outstanding misses starve the compute's own
			// cache traffic of fill buffers).
			warm := 0.0
			for _, i := range batch {
				row := arena[i*fw : (i+1)*fw]
				for j := 0; j < fw; j += 8 {
					warm += row[j]
				}
			}
			gatherSink = warm
			zb := z[:bs*classes]
			for i := range zb {
				zb[i] = 0
			}
			tensor.MatMulABTAccGather(zb, arena, batch, wb, classes, fw)
			for r := 0; r < bs; r++ {
				zr := zb[r*classes : (r+1)*classes]
				tensor.Softmax(zr, zr)
				zr[y[batch[r]]] -= 1
			}
			tensor.MatMulATBGatherB(grads, zb, arena, batch, classes, fw)
			scale := cfg.LR / float64(bs)
			for i, g := range grads {
				wb[i] -= scale*g + cfg.LR*cfg.L2*wb[i]
			}
		}
	}
	// Publish in the bias-last layout the rest of the system expects.
	for c := 0; c < classes; c++ {
		copy(m.W[c*fw:c*fw+nf], wb[c*fw+1:(c+1)*fw])
		m.W[c*fw+nf] = wb[c*fw]
	}
	return m, nil
}

// gatherSink keeps the warm-pass loads in Train observable so the
// compiler cannot delete them.
var gatherSink float64

// logits writes raw class scores for x into out.
func (m *Model) logits(x []float64, out []float64) {
	nf := m.Features
	for c := 0; c < m.Classes; c++ {
		base := c * (nf + 1)
		s := m.W[base+nf]
		for f, v := range x {
			s += m.W[base+f] * v
		}
		out[c] = s
	}
}

// PredictProba returns class probabilities for x.
func (m *Model) PredictProba(x []float64) []float64 {
	out := make([]float64, m.Classes)
	m.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes class probabilities for x into out (length
// Classes) without allocating — the batch-prediction hot path of the
// Phase III combiner.
func (m *Model) PredictProbaInto(x, out []float64) {
	if len(x) != m.Features {
		panic(fmt.Sprintf("logreg: expected %d features, got %d", m.Features, len(x)))
	}
	if len(out) != m.Classes {
		panic(fmt.Sprintf("logreg: expected %d-class output, got %d", m.Classes, len(out)))
	}
	m.logits(x, out)
	tensor.Softmax(out, out)
}

// Predict returns the argmax class for x.
func (m *Model) Predict(x []float64) int {
	return tensor.ArgMax(m.PredictProba(x))
}

// LogLoss computes mean cross-entropy over a dataset — a convergence probe
// for tests.
func (m *Model) LogLoss(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	total := 0.0
	for i, x := range X {
		p := m.PredictProba(x)
		total += -math.Log(math.Max(p[y[i]], 1e-12))
	}
	return total / float64(len(X))
}
