package model

import (
	"fmt"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// Bound is a model's compute at element width F, bound to one dataset:
// what the round engine and the workers call, so precision is a type
// argument chosen once instead of a second code path. At float64 it
// calls the Model methods on the dataset as given; at float32 it calls
// the Model32 methods on a narrowed copy made once at Bind.
type Bound[F linalg.Float] struct {
	m        Model
	sumGrad  func(params []F, idx []int, out []F)
	loss     func(params []F, idx []int) float64
	accuracy func(params []F) float64
}

// Bind binds m's width-F kernels to ds. It fails at float32 when m has
// no float32 kernel set (the MLP).
func Bind[F linalg.Float](m Model, ds *data.Dataset) (*Bound[F], error) {
	b := &Bound[F]{m: m}
	var sumGrad, loss, accuracy any
	if linalg.Width[F]() == 8 {
		sumGrad = func(p []float64, idx []int, out []float64) { m.SumGradient(p, ds, idx, out) }
		loss = func(p []float64, idx []int) float64 { return m.Loss(p, ds, idx) }
		accuracy = func(p []float64) float64 { return Accuracy(m, p, ds) }
	} else {
		m32, ok := m.(Model32)
		if !ok {
			return nil, fmt.Errorf("model: %s has no float32 kernel set (the f32 precision supports softmax and convnet)", m.Name())
		}
		ds32 := ds.To32()
		sumGrad = func(p []float32, idx []int, out []float32) { m32.SumGradient32(p, ds32, idx, out) }
		loss = func(p []float32, idx []int) float64 { return m32.Loss32(p, ds32, idx) }
		accuracy = func(p []float32) float64 { return Accuracy32(m32, p, ds32) }
	}
	b.sumGrad = sumGrad.(func([]F, []int, []F))
	b.loss = loss.(func([]F, []int) float64)
	b.accuracy = accuracy.(func([]F) float64)
	return b, nil
}

// Model returns the bound model.
func (b *Bound[F]) Model() Model { return b.m }

// SumGradient adds the sum of per-sample loss gradients over the bound
// dataset's samples idx into out (see Model.SumGradient).
func (b *Bound[F]) SumGradient(params []F, idx []int, out []F) { b.sumGrad(params, idx, out) }

// Loss returns the mean cross-entropy loss over the samples idx.
func (b *Bound[F]) Loss(params []F, idx []int) float64 { return b.loss(params, idx) }

// Accuracy returns the top-1 accuracy over the whole bound dataset.
func (b *Bound[F]) Accuracy(params []F) float64 { return b.accuracy(params) }

// InitParamsOf returns m's deterministic initialization at width F: the
// InitParams draw, narrowed element-wise at float32.
func InitParamsOf[F linalg.Float](m Model, seed int64) []F {
	p := InitParams(m, seed)
	if out, ok := any(p).([]F); ok {
		return out
	}
	out := make([]F, len(p))
	for i, v := range p {
		out[i] = F(v)
	}
	return out
}
