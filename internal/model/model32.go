package model

import (
	"fmt"
	"math"

	"byzshield/internal/data"
	"byzshield/internal/linalg"
)

// Model32 is a Model that can additionally run its forward/backward
// pass entirely in float32 — the compute side of the negotiated
// reduced-precision tier. The f32 methods mirror the f64 ones
// one-for-one over float32 parameter vectors and a Dataset32 view;
// like the f64 path they iterate samples in caller-given order with no
// parallelism, so two honest workers computing the same file produce
// bit-identical float32 gradients.
//
// Softmax and ConvNet implement Model32; the MLP stays f64-only (the
// precision tier targets the convolutional workload).
type Model32 interface {
	Model
	// Loss32 returns the mean cross-entropy loss over ds[idx], computed
	// from the float32 forward pass (accumulated in float64 so the
	// scalar is stable at large batch sizes).
	Loss32(params []float32, ds *data.Dataset32, idx []int) float64
	// SumGradient32 adds the SUM of per-sample loss gradients over
	// ds[idx] into out, which must have length NumParams().
	SumGradient32(params []float32, ds *data.Dataset32, idx []int, out []float32)
	// Predict32 returns the argmax class for features x.
	Predict32(params []float32, x []float32) int
}

// InitParams32 returns the float32 initialization for m: the f64
// InitParams vector narrowed element-wise, so an f32 run starts from
// the rounded image of the exact same deterministic draw an f64 run
// with the same seed starts from.
func InitParams32(m Model, seed int64) []float32 { return InitParamsOf[float32](m, seed) }

// Accuracy32 returns the top-1 accuracy of m with float32 params over
// the float32 dataset view.
func Accuracy32(m Model32, params []float32, ds *data.Dataset32) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range ds.X {
		if m.Predict32(params, x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// softmaxT converts logits to probabilities with the max-shift trick
// for numerical stability; the exponential runs through float64 in
// both instantiations (for T = float64 the conversions are identity,
// so the f64 path is unchanged op for op).
func softmaxT[T linalg.Float](logits []T) {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum T
	for i, v := range logits {
		e := T(math.Exp(float64(v - maxV)))
		logits[i] = e
		sum += e
	}
	for i := range logits {
		logits[i] /= sum
	}
}

// nllClamp accumulates one sample's negative log-likelihood: the
// probability is widened to float64 and clamped away from zero before
// the log, matching the f64 loss exactly when T = float64.
func nllClamp[T linalg.Float](p T) float64 {
	pf := float64(p)
	if pf < 1e-300 {
		pf = 1e-300
	}
	return -ln(pf)
}

// argmaxT returns the index of the largest value (ties to the lowest
// index, matching the f64 Predict loops).
func argmaxT[T linalg.Float](vals []T) int {
	best := 0
	for c := 1; c < len(vals); c++ {
		if vals[c] > vals[best] {
			best = c
		}
	}
	return best
}

// checkShapes32 panics on dimension violations shared by the f32
// model paths.
func checkShapes32(m Model, params []float32, ds *data.Dataset32) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: %d params, want %d", len(params), m.NumParams()))
	}
	if ds.Dim() != m.InputDim() {
		panic(fmt.Sprintf("model: dataset dim %d, want %d", ds.Dim(), m.InputDim()))
	}
	if ds.Classes != m.Classes() {
		panic(fmt.Sprintf("model: dataset classes %d, want %d", ds.Classes, m.Classes()))
	}
}

// checkGradLen panics when the gradient buffer length is wrong.
func checkGradLen(m Model, n int) {
	if n != m.NumParams() {
		panic(fmt.Sprintf("model: gradient buffer %d, want %d", n, m.NumParams()))
	}
}
