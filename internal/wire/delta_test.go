package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/linalg"
)

// perturb returns base with SGD-step-sized noise on most coordinates
// and a few left exactly unchanged.
func perturb[F linalg.Float](rng *rand.Rand, base []F) []F {
	cur := make([]F, len(base))
	for i, v := range base {
		if rng.Intn(5) == 0 {
			cur[i] = v // unchanged coordinate
		} else {
			cur[i] = v + F(rng.NormFloat64()*1e-3)
		}
	}
	return cur
}

// randVec returns d standard-normal values at width F.
func randVec[F linalg.Float](rng *rand.Rand, d int) []F {
	v := make([]F, d)
	for i := range v {
		v[i] = F(rng.NormFloat64())
	}
	return v
}

// fuzzFloats reads d width-F bit patterns from raw (zero-padded).
func fuzzFloats[F linalg.Float](raw []byte, d int) []F {
	w := linalg.Width[F]()
	out := make([]F, d)
	for i := range out {
		var x uint64
		for b := 0; b < w; b++ {
			if i*w+b < len(raw) {
				x |= uint64(raw[i*w+b]) << (8 * b)
			}
		}
		out[i] = linalg.FromBits[F](x)
	}
	return out
}

func TestParamsFullRoundTrip(t *testing.T) { testParamsFullRoundTrip[float64](t) }

// TestParams32RoundTrip runs the full and delta params round trips at
// float32.
func TestParams32RoundTrip(t *testing.T) {
	testParamsFullRoundTrip[float32](t)
	testParamsDeltaRoundTripAndSavings[float32](t)
}

// testParamsFullRoundTrip checks full width-F frames decode bit-exact
// at their documented size.
func testParamsFullRoundTrip[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{0, 1, 7, 330} {
		params := randVec[F](rng, d)
		enc, err := AppendParamsFull(nil, params)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != ParamsFullSize[F](d) {
			t.Fatalf("d=%d: encoded %d bytes, ParamsFullSize says %d", d, len(enc), ParamsFullSize[F](d))
		}
		got := make([]F, d)
		mode, consumed, err := DecodeParams(enc, got)
		if err != nil {
			t.Fatal(err)
		}
		if mode != ParamsFull || consumed != len(enc) {
			t.Fatalf("d=%d: mode %d consumed %d/%d", d, mode, consumed, len(enc))
		}
		if !linalg.EqualBits(got, params) {
			t.Fatalf("d=%d: coordinates differ", d)
		}
	}
}

func TestParamsDeltaRoundTripAndSavings(t *testing.T) {
	testParamsDeltaRoundTripAndSavings[float64](t)
}

// testParamsDeltaRoundTripAndSavings checks width-F delta frames apply
// bit-exact and undercut the full frame on SGD-sized steps.
func testParamsDeltaRoundTripAndSavings[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 2, 33, 330} {
		base := randVec[F](rng, d)
		cur := perturb(rng, base)
		enc, err := AppendParamsDelta(nil, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]F(nil), base...)
		mode, consumed, err := DecodeParams(enc, got)
		if err != nil {
			t.Fatal(err)
		}
		if mode != ParamsDelta || consumed != len(enc) {
			t.Fatalf("d=%d: mode %d consumed %d/%d", d, mode, consumed, len(enc))
		}
		if !linalg.EqualBits(got, cur) {
			t.Fatalf("d=%d: got %v want %v", d, got, cur)
		}
		if d >= 33 && len(enc) >= ParamsFullSize[F](d) {
			t.Errorf("d=%d: delta frame %d bytes not smaller than full %d", d, len(enc), ParamsFullSize[F](d))
		}
	}
}

func TestParamsDeltaBitExactSpecials(t *testing.T) {
	base := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), 2}
	cur := []float64{math.Copysign(0, -1), 0, math.NaN(), 1, math.Inf(-1), 2}
	enc, err := AppendParamsDelta(nil, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), base...)
	if _, _, err := DecodeParams(enc, got); err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
			t.Errorf("coordinate %d: bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
		}
	}
}

func TestDecodeParamsRejectsGarbage(t *testing.T) {
	base := []float64{1, 2, 3}
	cur := []float64{1.001, 2, 3.5}
	delta, err := AppendParamsDelta(nil, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	full, err := AppendParamsFull(nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]float64, 3)
	cases := map[string][]byte{
		"empty":           {},
		"bad-mode":        append([]byte{9}, delta[1:]...),
		"wrong-dim":       func() []byte { b := append([]byte(nil), full...); b[1] = 99; return b }(),
		"truncated-full":  full[:len(full)-1],
		"truncated-delta": delta[:len(delta)-1],
	}
	for name, b := range cases {
		copy(scratch, base)
		if _, _, err := DecodeParams(b, scratch); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Non-canonical delta: lengthen a coordinate so its top byte is 0.
	bad, err := AppendParamsDelta(nil, []float64{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	bad[paramsHeader] = 2 // claim 2 bytes for a zero XOR
	bad = append(bad, 0, 0)
	copy(scratch, base)
	if _, _, err := DecodeParams(bad, scratch[:1]); err == nil {
		t.Error("non-canonical zero-padded delta accepted")
	}
}

// FuzzDecodeParams checks that arbitrary bytes never panic the decoder
// for any parameter length (d16 mod 64), and that any accepted frame is
// canonical: re-encoding the decoded state against the original base
// reproduces the consumed bytes.
func FuzzDecodeParams(f *testing.F)   { fuzzDecodeParams[float64](f) }
func FuzzDecodeParams32(f *testing.F) { fuzzDecodeParams[float32](f) }

// fuzzDecodeParams is the params decode fuzz body at width F.
func fuzzDecodeParams[F linalg.Float](f *testing.F) {
	seedFull, _ := AppendParamsFull(nil, []F{1, -2, 0.5})
	seedDelta, _ := AppendParamsDelta(nil, []F{1, -2, 0.5}, []F{1.0001, -2, 0.75})
	f.Add(seedFull, uint16(3))
	f.Add(seedDelta, uint16(3))
	f.Add([]byte{ParamsDelta, 3, 0, 0, 0, 0xFF}, uint16(3))
	f.Add(seedFull, uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, d16 uint16) {
		base := make([]F, int(d16)%64)
		for i := range base {
			base[i] = []F{1, -2, 0.5}[i%3]
		}
		params := append([]F(nil), base...)
		mode, consumed, err := DecodeParams(data, params)
		if err != nil {
			return
		}
		var re []byte
		if mode == ParamsFull {
			re, err = AppendParamsFull(nil, params)
		} else {
			re, err = AppendParamsDelta(nil, base, params)
		}
		if err != nil {
			t.Fatalf("accepted frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}

// FuzzParamsDeltaRoundTrip builds structured base/cur pairs from fuzzed
// bits and checks bit-exact delta application.
func FuzzParamsDeltaRoundTrip(f *testing.F)   { fuzzParamsDeltaRoundTrip[float64](f) }
func FuzzParams32DeltaRoundTrip(f *testing.F) { fuzzParamsDeltaRoundTrip[float32](f) }

// fuzzParamsDeltaRoundTrip is the delta round-trip fuzz body at width F.
func fuzzParamsDeltaRoundTrip[F linalg.Float](f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{8, 7, 6, 5})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, rawBase, rawCur []byte) {
		d := min(len(rawBase)/linalg.Width[F](), 64)
		base := fuzzFloats[F](rawBase, d)
		cur := fuzzFloats[F](rawCur, d)
		enc, err := AppendParamsDelta(nil, base, cur)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]F(nil), base...)
		mode, consumed, err := DecodeParams(enc, got)
		if err != nil {
			t.Fatal(err)
		}
		if mode != ParamsDelta || consumed != len(enc) {
			t.Fatalf("mode %d, consumed %d/%d", mode, consumed, len(enc))
		}
		if !linalg.EqualBits(got, cur) {
			t.Fatal("coordinates differ")
		}
	})
}

// TestDecodeParams32RejectsF64Lengths: a nibble length of 5–8 is legal
// at float64 but impossible for a u32 XOR; the float32 decoder must
// reject it.
func TestDecodeParams32RejectsF64Lengths(t *testing.T) {
	cur := []float32{1}
	frame := []byte{ParamsDelta, 1, 0, 0, 0, 0x05, 1, 2, 3, 4, 5}
	if _, _, err := DecodeParams(frame, cur); err == nil {
		t.Fatal("want error for f32 delta length > 4")
	}
}
