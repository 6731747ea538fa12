package linalg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorArithmetic(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	AddInPlace(a, b)
	if a[0] != 5 || a[2] != 9 {
		t.Errorf("AddInPlace = %v", a)
	}
	d := Sub(b, []float64{1, 1, 1})
	if d[0] != 3 || d[2] != 5 {
		t.Errorf("Sub = %v", d)
	}
	s := ScaleVec(b, 2)
	if s[1] != 10 || b[1] != 5 {
		t.Errorf("ScaleVec = %v (orig %v)", s, b)
	}
	ScaleInPlace(b, 0.5)
	if b[0] != 2 {
		t.Errorf("ScaleInPlace = %v", b)
	}
	v := []float64{1, 1}
	AxpyInPlace(v, 3, []float64{2, 4})
	if v[0] != 7 || v[1] != 13 {
		t.Errorf("AxpyInPlace = %v", v)
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Errorf("Dot = %v", Dot(a, a))
	}
	if Norm2(a) != 5 {
		t.Errorf("Norm2 = %v", Norm2(a))
	}
	if Dist2([]float64{0, 0}, a) != 5 {
		t.Errorf("Dist2 = %v", Dist2([]float64{0, 0}, a))
	}
	if SqDist2([]float64{0, 0}, a) != 25 {
		t.Errorf("SqDist2 = %v", SqDist2([]float64{0, 0}, a))
	}
}

func TestDimMismatchPanics(t *testing.T) {
	funcs := map[string]func(){
		"AddInPlace": func() { AddInPlace([]float64{1}, []float64{1, 2}) },
		"Sub":        func() { Sub([]float64{1}, []float64{1, 2}) },
		"Dot":        func() { Dot([]float64{1}, []float64{1, 2}) },
		"Dist2":      func() { Dist2([]float64{1}, []float64{1, 2}) },
		"Axpy":       func() { AxpyInPlace([]float64{1}, 2, []float64{1, 2}) },
	}
	for name, f := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: dim mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMeanStdMedianVec(t *testing.T) {
	vs := [][]float64{
		{1, 10},
		{2, 20},
		{3, 30},
	}
	mean := MeanVec(vs)
	if !almostEq(mean[0], 2, 1e-12) || !almostEq(mean[1], 20, 1e-12) {
		t.Errorf("MeanVec = %v", mean)
	}
	std := StdVec(vs)
	want := math.Sqrt(2.0 / 3.0)
	if !almostEq(std[0], want, 1e-12) {
		t.Errorf("StdVec[0] = %v, want %v", std[0], want)
	}
	med := MedianVec(vs)
	if med[0] != 2 || med[1] != 20 {
		t.Errorf("MedianVec = %v", med)
	}
}

func TestMedianOf(t *testing.T) {
	if MedianOf([]float64{5}) != 5 {
		t.Error("single-element median")
	}
	if MedianOf([]float64{3, 1, 2}) != 2 {
		t.Error("odd median")
	}
	if MedianOf([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even median")
	}
	// input must not be mutated
	xs := []float64{3, 1, 2}
	MedianOf(xs)
	if xs[0] != 3 {
		t.Error("MedianOf mutated input")
	}
}

func TestTrimmedMeanOf(t *testing.T) {
	xs := []float64{100, 1, 2, 3, -50}
	got := TrimmedMeanOf(xs, 1)
	if !almostEq(got, 2, 1e-12) {
		t.Errorf("TrimmedMeanOf = %v, want 2", got)
	}
	if !almostEq(TrimmedMeanOf(xs, 0), (100+1+2+3-50)/5.0, 1e-12) {
		t.Error("trim=0 should be plain mean")
	}
	defer func() {
		if recover() == nil {
			t.Error("over-trim did not panic")
		}
	}()
	TrimmedMeanOf([]float64{1, 2}, 1)
}

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		z := NormalQuantile(p)
		back := NormalCDF(z)
		if !almostEq(back, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
	if NormalQuantile(0.5) != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", NormalQuantile(0.5))
	}
	// Known value: Phi^-1(0.975) ~= 1.959964
	if !almostEq(NormalQuantile(0.975), 1.959964, 1e-5) {
		t.Errorf("Quantile(0.975) = %v", NormalQuantile(0.975))
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestArgMinArgMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if ArgMin(xs) != 1 {
		t.Errorf("ArgMin = %d, want 1 (first of ties)", ArgMin(xs))
	}
	if ArgMax(xs) != 4 {
		t.Errorf("ArgMax = %d", ArgMax(xs))
	}
}

func TestZerosClone(t *testing.T) {
	z := Zeros(3)
	if len(z) != 3 || z[0] != 0 {
		t.Error("Zeros wrong")
	}
	v := []float64{1, 2}
	c := CloneVec(v)
	c[0] = 9
	if v[0] != 1 {
		t.Error("CloneVec aliases input")
	}
}

// Property: median of any vector set lies within [min, max] per
// coordinate, and is permutation invariant.
func TestQuickMedianBounds(t *testing.T) {
	prop := func(raw [5]float64, shift uint8) bool {
		vs := make([][]float64, 5)
		for i := range vs {
			vs[i] = []float64{clampF(raw[i])}
		}
		med := MedianVec(vs)[0]
		lo, hi := vs[0][0], vs[0][0]
		for _, v := range vs {
			lo = math.Min(lo, v[0])
			hi = math.Max(hi, v[0])
		}
		if med < lo || med > hi {
			return false
		}
		// permutation invariance: rotate by shift
		rot := make([][]float64, 5)
		s := int(shift) % 5
		for i := range vs {
			rot[i] = vs[(i+s)%5]
		}
		return MedianVec(rot)[0] == med
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: trimmed mean with trim t of sorted data is bounded by the
// (t)th and (n-1-t)th order statistics.
func TestQuickTrimmedMeanBounds(t *testing.T) {
	prop := func(raw [7]float64) bool {
		xs := make([]float64, 7)
		for i := range xs {
			xs[i] = clampF(raw[i])
		}
		tm := TrimmedMeanOf(xs, 2)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return tm >= sorted[2]-1e-12 && tm <= sorted[4]+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMedianVec(b *testing.B) {
	vs := make([][]float64, 25)
	for i := range vs {
		vs[i] = make([]float64, 1000)
		for j := range vs[i] {
			vs[i][j] = float64((i*j)%13) - 6
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MedianVec(vs)
	}
}

func TestEqualBits(t *testing.T) {
	testEqualBits[float64](t)
	testEqualBits[float32](t)
}

// testEqualBits pins the exact-vote equality at width F: a NaN equals
// itself, +0 and −0 differ, and lengths must match.
func testEqualBits[F Float](t *testing.T) {
	nan := F(math.NaN())
	negZero := F(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b []F
		want bool
	}{
		{nil, []F{}, true},
		{[]F{1, nan, 3}, []F{1, nan, 3}, true},
		{[]F{1, 0, 3}, []F{1, negZero, 3}, false},
		{[]F{1, 2, 3}, []F{1, 2, 4}, false},
		{[]F{1, 2}, []F{1, 2, 3}, false},
	} {
		if got := EqualBits(c.a, c.b); got != c.want {
			t.Errorf("width %d: EqualBits(%v, %v) = %v, want %v", Width[F](), c.a, c.b, got, c.want)
		}
	}
}
