package vote

import (
	"math"
	"testing"
	"testing/quick"

	"byzshield/internal/linalg"
)

func TestMajorityHonestWins(t *testing.T) {
	honest := []float64{1.5, -2.25, 3}
	byz := []float64{9, 9, 9}
	res, err := Majority([][]float64{honest, byz, honest})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Tied || res.Unanimous {
		t.Errorf("result = %+v", res)
	}
	if &res.Winner[0] == &byz[0] || res.Winner[0] != 1.5 {
		t.Errorf("winner = %v", res.Winner)
	}
}

func TestMajorityByzantineMajorityWins(t *testing.T) {
	// When r' of r replicas collude, they control the vote — this is
	// exactly the distortion event the assignment schemes minimize.
	honest := []float64{1}
	byz := []float64{-1}
	res, err := Majority([][]float64{byz, honest, byz})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner[0] != -1 || res.Count != 2 {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityUnanimous(t *testing.T) {
	g := []float64{2, 4}
	res, err := Majority([][]float64{g, g, g})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous || res.Count != 3 || res.Tied {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityTieDeterministic(t *testing.T) {
	a := []float64{1}
	b := []float64{2}
	res, err := Majority([][]float64{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tied {
		t.Error("tie not reported")
	}
	if res.Winner[0] != 1 {
		t.Errorf("tie winner = %v, want first-seen candidate", res.Winner)
	}
	// Order flip: winner follows first appearance.
	res2, err := Majority([][]float64{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Winner[0] != 2 {
		t.Errorf("tie winner = %v, want first-seen candidate", res2.Winner)
	}
}

func TestMajorityErrors(t *testing.T) { testMajorityErrors[float64](t) }

// testMajorityErrors checks the input validation at width F.
func testMajorityErrors[F linalg.Float](t *testing.T) {
	if _, err := Majority[F](nil); err == nil {
		t.Error("empty replicas accepted")
	}
	if _, err := Majority([][]F{{1}, {1, 2}}); err == nil {
		t.Error("ragged replicas accepted")
	}
}

func TestMajoritySingleReplica(t *testing.T) {
	res, err := Majority([][]float64{{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unanimous || res.Count != 1 || res.Tied {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityNaNHandling(t *testing.T) {
	// Byzantine workers may return NaNs; identical NaN payloads must
	// count as equal votes rather than splitting.
	nanVec := []float64{math.NaN()}
	honest := []float64{1}
	res, err := Majority([][]float64{nanVec, nanVec, honest})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || !math.IsNaN(res.Winner[0]) {
		t.Errorf("result = %+v", res)
	}
}

func TestMajorityWithToleranceAbsorbsJitter(t *testing.T) {
	g1 := []float64{1.0, 2.0}
	g2 := []float64{1.0 + 1e-12, 2.0 - 1e-12} // same gradient, float jitter
	byz := []float64{5, 5}
	res, err := MajorityWithTolerance([][]float64{g1, g2, byz}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Errorf("jittered replicas not clustered: %+v", res)
	}
	if res.Winner[0] != 1.0 {
		t.Errorf("winner = %v", res.Winner)
	}
	// Exact mode must NOT cluster them.
	resExact, err := Majority([][]float64{g1, g2, byz})
	if err != nil {
		t.Fatal(err)
	}
	if resExact.Count != 1 {
		t.Errorf("exact mode clustered jitter: %+v", resExact)
	}
}

func TestMajorityWithToleranceErrors(t *testing.T) {
	if _, err := MajorityWithTolerance[float64](nil, 0.1); err == nil {
		t.Error("empty accepted")
	}
	if _, err := MajorityWithTolerance([][]float64{{1}}, -1); err == nil {
		t.Error("negative tol accepted")
	}
	if _, err := MajorityWithTolerance([][]float64{{1}, {1, 2}}, 0.1); err == nil {
		t.Error("ragged accepted")
	}
}

func TestMajorityWithToleranceZeroTolIsExactish(t *testing.T) {
	a := []float64{1}
	b := []float64{2}
	res, err := MajorityWithTolerance([][]float64{a, a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.Winner[0] != 1 {
		t.Errorf("result = %+v", res)
	}
}

// Property: when strictly more than half the replicas are the identical
// honest vector, the honest vector always wins — the invariant that
// makes r' = ⌊r/2⌋+1 the distortion threshold.
func TestQuickHonestMajorityAlwaysWins(t *testing.T) {
	prop := func(rRaw, byzRaw uint8, hv, bv float64) bool {
		r := 3 + 2*(int(rRaw)%4) // r in {3,5,7,9}
		honestCount := r/2 + 1 + int(byzRaw)%(r/2+1)
		if honestCount > r {
			honestCount = r
		}
		if math.IsNaN(hv) || math.IsInf(hv, 0) {
			hv = 1
		}
		if math.IsNaN(bv) || math.IsInf(bv, 0) || bv == hv {
			bv = hv + 1
		}
		honest := []float64{hv}
		replicas := make([][]float64, 0, r)
		for i := 0; i < honestCount; i++ {
			replicas = append(replicas, honest)
		}
		for i := honestCount; i < r; i++ {
			replicas = append(replicas, []float64{bv})
		}
		res, err := Majority(replicas)
		if err != nil {
			return false
		}
		return res.Winner[0] == hv && res.Count == honestCount && !res.Tied
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Majority and MajorityWithTolerance(0-ish) agree when all
// replicas are exact duplicates from a small candidate set.
func TestQuickExactVsToleranceAgree(t *testing.T) {
	prop := func(pattern uint16) bool {
		candidates := [][]float64{{0}, {1}, {2}}
		var replicas [][]float64
		for i := 0; i < 5; i++ {
			replicas = append(replicas, candidates[int(pattern>>(2*i))%3])
		}
		a, err1 := Majority(replicas)
		b, err2 := MajorityWithTolerance(replicas, 1e-12)
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Count == b.Count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMajority5x1000(b *testing.B) {
	replicas := make([][]float64, 5)
	base := make([]float64, 1000)
	for i := range base {
		base[i] = float64(i)
	}
	for i := range replicas {
		replicas[i] = base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Majority(replicas); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMajority32MirrorsF64(t *testing.T) {
	// Every scenario is evaluated at both widths over the same bit
	// patterns; the elections must agree in every Result field.
	cases := [][][]float32{
		{{1, 2, 3}, {1, 2, 3}, {9, 9, 9}},
		{{1, 2}, {3, 4}, {1, 2}, {3, 4}},                    // tie → lowest first index
		{{5, 5}, {5, 5}, {5, 5}},                            // unanimous
		{{0}, {float32(math.Copysign(0, -1))}, {0}},         // ±0 distinct
		{{float32(math.NaN())}, {float32(math.NaN())}, {1}}, // NaN self-equal
	}
	for ci, reps32 := range cases {
		reps64 := make([][]float64, len(reps32))
		for i, r := range reps32 {
			reps64[i] = make([]float64, len(r))
			for j, v := range r {
				reps64[i][j] = float64(v)
			}
		}
		r32, err := Majority(reps32)
		if err != nil {
			t.Fatal(err)
		}
		r64, err := Majority(reps64)
		if err != nil {
			t.Fatal(err)
		}
		if r32.Count != r64.Count || r32.Unanimous != r64.Unanimous || r32.Tied != r64.Tied {
			t.Errorf("case %d: f32 (%d,%v,%v) vs f64 (%d,%v,%v)", ci,
				r32.Count, r32.Unanimous, r32.Tied, r64.Count, r64.Unanimous, r64.Tied)
		}
		for j := range r32.Winner {
			if float64(r32.Winner[j]) != r64.Winner[j] && !(math.IsNaN(float64(r32.Winner[j])) && math.IsNaN(r64.Winner[j])) {
				t.Errorf("case %d: winners diverge at %d", ci, j)
			}
		}
	}
}

func TestMajority32HashFallback(t *testing.T) {
	// Above smallN replicas the hash path runs; it must elect the same
	// plurality as the direct path does on a truncated copy.
	reps := make([][]float32, smallN+4)
	for i := range reps {
		if i%2 == 0 {
			reps[i] = []float32{1, 2}
		} else {
			reps[i] = []float32{3, 4}
		}
	}
	r, err := Majority(reps)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count != smallN/2+2 || r.Winner[0] != 1 {
		t.Fatalf("hash path elected count=%d winner=%v", r.Count, r.Winner)
	}
}

func TestMajority32Errors(t *testing.T) { testMajorityErrors[float32](t) }
