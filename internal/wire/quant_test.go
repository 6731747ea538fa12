package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"byzshield/internal/linalg"
)

// quantizeReport applies the tier's in-place helper to a copy of the
// report — the values the engine pinned to the tier would aggregate.
func quantizeReport[F linalg.Float](tier UplinkTier, grads [][]F) [][]F {
	out := make([][]F, len(grads))
	for i, g := range grads {
		out[i] = slices.Clone(g)
		switch tier {
		case TierSign:
			SignQuantizeInPlace(out[i])
		case TierInt8:
			Int8QuantizeInPlace(out[i])
		}
	}
	return out
}

// TestUplinkTierSpellings pins the flag spellings, the parse round
// trip, and the negotiation bitmask bits.
func TestUplinkTierSpellings(t *testing.T) {
	for _, tier := range []UplinkTier{TierRaw, TierSign, TierInt8} {
		got, err := ParseUplinkTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseUplinkTier(%q) = %v, %v", tier.String(), got, err)
		}
		if AllTiersMask&tier.Mask() == 0 {
			t.Errorf("tier %s missing from AllTiersMask", tier)
		}
	}
	if AllTiersMask != TierRaw.Mask()|TierSign.Mask()|TierInt8.Mask() {
		t.Errorf("AllTiersMask = %#b, want exactly raw|sign|int8", AllTiersMask)
	}
	for _, name := range []string{"gzip", "delta"} {
		if _, err := ParseUplinkTier(name); err == nil {
			t.Errorf("ParseUplinkTier accepted %q", name)
		}
	}
	if TierSign.Lossy() != true || TierInt8.Lossy() != true || TierRaw.Lossy() {
		t.Error("Lossy() wrong for some tier")
	}
}

// TestUplinkQuantRoundTrip streams reports through sign and int8
// encoder/decoder pairs: every decode must equal the in-place helper
// bit-for-bit (the loopback == engine property), hit the documented
// frame size, and beat the raw encoding by the tier's design ratio.
func TestUplinkQuantRoundTrip(t *testing.T) { testUplinkQuantRoundTrip[float64](t) }

// TestUplink32QuantMatchesInPlace runs the quantized round trip at
// float32, where the design ratio halves with the value width.
func TestUplink32QuantMatchesInPlace(t *testing.T) { testUplinkQuantRoundTrip[float32](t) }

// testUplinkQuantRoundTrip is the quantized round trip at width F.
func testUplinkQuantRoundTrip[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	files := []int{2, 7, 19}
	for _, tier := range []UplinkTier{TierSign, TierInt8} {
		enc := UplinkEncoderOf[F]{Tier: tier}
		dec := UplinkDecoderOf[F]{Tier: tier}
		var f GradFrameOf[F]
		grads := reportOf[F](rng, 3, 50)
		for round := 0; round < 4; round++ {
			frame, mode, rawSize, err := enc.Encode(nil, 4, files, grads)
			if err != nil {
				t.Fatal(err)
			}
			wantMode, wantSize := UplinkSign, UplinkSignSize[F](3, 50)
			if tier == TierInt8 {
				wantMode, wantSize = UplinkInt8, UplinkInt8Size[F](3, 50)
			}
			if mode != wantMode {
				t.Fatalf("%s round %d: mode %d, want %d", tier, round, mode, wantMode)
			}
			if len(frame) != wantSize {
				t.Fatalf("%s round %d: frame %d bytes, want %d", tier, round, len(frame), wantSize)
			}
			if rawSize != UplinkRawSize[F](3, 50) {
				t.Fatalf("%s round %d: rawSize %d, want %d", tier, round, rawSize, UplinkRawSize[F](3, 50))
			}
			// int8 costs one byte per value: ≥4× under f64, ≥2× under f32.
			if ratio := linalg.Width[F]() / 2; ratio*len(frame) > rawSize {
				t.Fatalf("%s round %d: frame %d bytes does not cut raw %d by ≥%d×", tier, round, len(frame), rawSize, ratio)
			}
			if got := decodeOne(t, &dec, frame, &f); got != mode {
				t.Fatalf("%s round %d: decoder saw mode %d", tier, round, got)
			}
			checkReport(t, &f, 4, files, quantizeReport(tier, grads))
			grads = perturbReport(rng, grads)
		}
	}
}

// TestUplinkQuantSpecialValues: signed zeros, infinities, and extreme
// magnitudes dequantize to exactly what the in-place helpers compute,
// and a NaN gradient fails the sign encode instead of emitting a frame
// the decoder would reject.
func TestUplinkQuantSpecialValues(t *testing.T) { testUplinkQuantSpecialValues[float64](t) }

// TestUplink32SignRejectsNaNScale runs the special-value checks —
// including the NaN sign-scale refusal — at float32.
func TestUplink32SignRejectsNaNScale(t *testing.T) { testUplinkQuantSpecialValues[float32](t) }

// testUplinkQuantSpecialValues is the special-value check at width F
// (at float32 the extreme magnitudes round to ±Inf and −0).
func testUplinkQuantSpecialValues[F linalg.Float](t *testing.T) {
	files := []int{3}
	huge, tiny := 1e300, -1e-300
	special := [][]F{{0, F(math.Copysign(0, -1)), F(huge), F(tiny), F(math.Inf(1)), 2}}
	for _, tier := range []UplinkTier{TierSign, TierInt8} {
		enc := UplinkEncoderOf[F]{Tier: tier}
		dec := UplinkDecoderOf[F]{Tier: tier}
		var f GradFrameOf[F]
		frame, _, _, err := enc.Encode(nil, 2, files, special)
		if err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 2, files, quantizeReport(tier, special))
	}
	enc := UplinkEncoderOf[F]{Tier: TierSign}
	if _, _, _, err := enc.Encode(nil, 2, files, [][]F{{1, F(math.NaN())}}); err == nil {
		t.Error("sign encode accepted a NaN gradient")
	}
}

// TestUplinkQuantTierStrict: each decoder accepts exactly its tier's
// modes — a lossless frame on a lossy stream (or vice versa) poisons
// the stream instead of silently changing codecs.
func TestUplinkQuantTierStrict(t *testing.T) { testUplinkQuantTierStrict[float64](t) }

// TestUplink32TierGating runs the tier gating checks at float32.
func TestUplink32TierGating(t *testing.T) { testUplinkQuantTierStrict[float32](t) }

// testUplinkQuantTierStrict is the tier gating check at width F.
func testUplinkQuantTierStrict[F linalg.Float](t *testing.T) {
	files := []int{1}
	grads := [][]F{{1, -2, 3}}
	frames := map[UplinkTier][]byte{}
	for _, tier := range []UplinkTier{TierRaw, TierSign, TierInt8} {
		enc := UplinkEncoderOf[F]{Tier: tier}
		frame, _, _, err := enc.Encode(nil, 0, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		frames[tier] = frame
	}
	accepts := map[UplinkTier][]UplinkTier{
		TierRaw:       {TierRaw},
		TierSign:      {TierSign},
		TierInt8:      {TierInt8},
		UplinkTier(3): nil,
	}
	for decTier, ok := range accepts {
		for _, encTier := range []UplinkTier{TierRaw, TierSign, TierInt8} {
			dec := UplinkDecoderOf[F]{Tier: decTier}
			var f GradFrameOf[F]
			_, _, err := dec.Decode(frames[encTier], &f)
			if want := slices.Contains(ok, encTier); (err == nil) != want {
				t.Errorf("tier %s decoder, %s frame: err=%v, want accept=%v", decTier, encTier, err, want)
			}
		}
	}
	// An undefined tier has no frame mode — not even 0 — and no encoder.
	undefined := UplinkTier(3)
	zeroMode := slices.Clone(frames[TierInt8])
	zeroMode[0] = 0
	var f GradFrameOf[F]
	if _, _, err := (&UplinkDecoderOf[F]{Tier: undefined}).Decode(zeroMode, &f); err == nil {
		t.Error("undefined-tier decoder accepted a mode-0 frame")
	}
	if _, _, _, err := (&UplinkEncoderOf[F]{Tier: undefined}).Encode(nil, 0, files, grads); err == nil {
		t.Error("undefined-tier encoder emitted a frame")
	}
}

// TestUplinkSignRejects: non-canonical sign frames — negative or NaN
// scales, set padding bits, truncation — are all errors.
func TestUplinkSignRejects(t *testing.T) {
	enc := UplinkEncoder{Tier: TierSign}
	frame, _, _, err := enc.Encode(nil, 1, []int{0}, [][]float64{{1, -2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	scaleAt := uplinkQuantHeader + 4 // one file id, then the row scale
	cases := map[string][]byte{
		"truncated": frame[:len(frame)-1],
		"neg scale": func() []byte {
			b := slices.Clone(frame)
			b[scaleAt+7] |= 0x80
			return b
		}(),
		"nan scale": func() []byte {
			b := slices.Clone(frame)
			copy(b[scaleAt:], []byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
			return b
		}(),
		"padding bits": func() []byte {
			b := slices.Clone(frame)
			b[len(b)-1] |= 0x80 // d=3, bits 3..7 are padding
			return b
		}(),
	}
	dec := UplinkDecoder{Tier: TierSign}
	var f GradFrame
	for name, bad := range cases {
		if _, _, err := dec.Decode(bad, &f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := dec.Decode(frame, &f); err != nil {
		t.Fatalf("rejected frames poisoned the (stateless) decoder: %v", err)
	}
}

// TestUplinkInt8Grid: int8 dequantization lands every value on the
// row's 256-point grid with the extremes mapped exactly, and a
// constant row (scale 0) reproduces the constant.
func TestUplinkInt8Grid(t *testing.T) {
	g := []float64{-3, -1, 0, 0.5, 5}
	q := slices.Clone(g)
	Int8QuantizeInPlace(q)
	if q[0] != -3 {
		t.Errorf("row min %v, want -3 exactly", q[0])
	}
	min, scale := int8Params(g)
	if got := min + scale*255; q[4] != got {
		t.Errorf("row max %v, want %v", q[4], got)
	}
	for i, v := range q {
		steps := math.Round((v - min) / scale)
		if v != min+scale*steps {
			t.Errorf("value %d (%v) off the quantization grid", i, v)
		}
	}
	c := []float64{2.5, 2.5, 2.5}
	Int8QuantizeInPlace(c)
	for _, v := range c {
		if v != 2.5 {
			t.Errorf("constant row quantized to %v", v)
		}
	}
}

// FuzzUplinkQuantRoundTrip builds a report from fuzz bits and checks
// the load-bearing determinism property for both lossy tiers: the
// wire round trip delivers bit-for-bit the values the in-place helper
// computes, so the engine pinned to a tier reproduces the wire path.
func FuzzUplinkQuantRoundTrip(f *testing.F)   { fuzzUplinkQuantRoundTrip[float64](f) }
func FuzzUplinkQuant32RoundTrip(f *testing.F) { fuzzUplinkQuantRoundTrip[float32](f) }

// fuzzUplinkQuantRoundTrip is the lossy round-trip fuzz body at width F.
func fuzzUplinkQuantRoundTrip[F linalg.Float](f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := min(len(raw)/linalg.Width[F](), 32)
		if d == 0 {
			return
		}
		g := fuzzFloats[F](raw, d)
		files := []int{5}
		grads := [][]F{g}
		for _, tier := range []UplinkTier{TierSign, TierInt8} {
			enc := UplinkEncoderOf[F]{Tier: tier}
			dec := UplinkDecoderOf[F]{Tier: tier}
			frame, _, _, err := enc.Encode(nil, 1, files, grads)
			if err != nil {
				// Sign refuses NaN scales; nothing to round-trip.
				continue
			}
			var fr GradFrameOf[F]
			_, consumed, err := dec.Decode(frame, &fr)
			if err != nil {
				t.Fatalf("%s: decode own frame: %v", tier, err)
			}
			if consumed != len(frame) {
				t.Fatalf("%s: consumed %d of %d", tier, consumed, len(frame))
			}
			want := quantizeReport(tier, grads)
			for i := 0; i < d; i++ {
				if linalg.Bits(fr.Grads[0][i]) != linalg.Bits(want[0][i]) {
					t.Fatalf("%s: value %d: wire %x, engine %x", tier, i,
						linalg.Bits(fr.Grads[0][i]), linalg.Bits(want[0][i]))
				}
			}
		}
	})
}

// FuzzDecodeUplinkSign feeds arbitrary bytes to a sign-tier decoder:
// decoding must never panic, and any accepted frame must be canonical
// — rebuilding it from the decoded values (scale = |value|, bit =
// !signbit) reproduces exactly the consumed bytes.
func FuzzDecodeUplinkSign(f *testing.F)   { fuzzDecodeUplinkSign[float64](f) }
func FuzzDecodeUplink32Sign(f *testing.F) { fuzzDecodeUplinkSign[float32](f) }

// fuzzDecodeUplinkSign is the sign-tier decode fuzz body at width F.
func fuzzDecodeUplinkSign[F linalg.Float](f *testing.F) {
	seedEnc := UplinkEncoderOf[F]{Tier: TierSign}
	seed, _, _, _ := seedEnc.Encode(nil, 1, []int{2, 9}, [][]F{{1, -2, 0.5}, {3, 0, -0.25}})
	f.Add(seed)
	f.Add([]byte{UplinkSign, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := UplinkDecoderOf[F]{Tier: TierSign}
		var fr GradFrameOf[F]
		mode, consumed, err := dec.Decode(data, &fr)
		if err != nil {
			return
		}
		if mode != UplinkSign || consumed > len(data) {
			t.Fatalf("mode %d consumed %d of %d", mode, consumed, len(data))
		}
		n := len(fr.Files)
		d := 0
		if n > 0 {
			d = len(fr.Grads[0])
		}
		re := []byte{UplinkSign}
		re = append32(re, uint32(fr.Worker))
		re = append32(re, uint32(n))
		re = append32(re, uint32(d))
		for _, v := range fr.Files {
			re = append32(re, uint32(v))
		}
		for _, g := range fr.Grads {
			var s F
			if len(g) > 0 {
				s = absBits(g[0])
			}
			re = appendFloat(re, s)
		}
		for _, g := range fr.Grads {
			at := len(re)
			re = append(re, make([]byte, signBytesPerRow(d))...)
			for j, v := range g {
				if !math.Signbit(float64(v)) {
					re[at+j/8] |= 1 << (j % 8)
				}
			}
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}

// FuzzDecodeUplinkInt8 feeds arbitrary bytes to an int8-tier decoder:
// decoding must never panic, allocation is bounded by the input, and
// an accepted frame dequantizes deterministically (two decodes agree
// bit-for-bit). Int8 frames are not forced byte-canonical — distinct
// (min, scale, q) triples can dequantize to the same row — so unlike
// the sign target there is no re-encode check; determinism is the
// property aggregation needs.
func FuzzDecodeUplinkInt8(f *testing.F)   { fuzzDecodeUplinkInt8[float64](f) }
func FuzzDecodeUplink32Int8(f *testing.F) { fuzzDecodeUplinkInt8[float32](f) }

// fuzzDecodeUplinkInt8 is the int8-tier decode fuzz body at width F.
func fuzzDecodeUplinkInt8[F linalg.Float](f *testing.F) {
	seedEnc := UplinkEncoderOf[F]{Tier: TierInt8}
	seed, _, _, _ := seedEnc.Encode(nil, 1, []int{2, 9}, [][]F{{1, -2, 0.5}, {3, 0, -0.25}})
	f.Add(seed)
	f.Add([]byte{UplinkInt8, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := UplinkDecoderOf[F]{Tier: TierInt8}
		var a, b GradFrameOf[F]
		mode, consumed, err := dec.Decode(data, &a)
		if err != nil {
			return
		}
		if mode != UplinkInt8 || consumed > len(data) {
			t.Fatalf("mode %d consumed %d of %d", mode, consumed, len(data))
		}
		if _, consumed2, err := dec.Decode(data, &b); err != nil || consumed2 != consumed {
			t.Fatalf("re-decode: consumed %d err %v, first decode consumed %d", consumed2, err, consumed)
		}
		if a.Worker != b.Worker || !slices.Equal(a.Files, b.Files) {
			t.Fatal("re-decode header differs")
		}
		for i := range a.Grads {
			if !linalg.EqualBits(a.Grads[i], b.Grads[i]) {
				t.Fatalf("re-decode row %d differs", i)
			}
		}
	})
}

func TestUplinkSizeHelpers(t *testing.T)   { testUplinkSizeHelpers[float64](t) }
func TestUplink32SizeHelpers(t *testing.T) { testUplinkSizeHelpers[float32](t) }

// testUplinkSizeHelpers pins the width-F size formulas against real
// encodes of every self-contained tier.
func testUplinkSizeHelpers[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, d := 3, 21
	grads := reportOf[F](rng, n, d)
	files := []int{5, 6, 7}
	for tier, want := range map[UplinkTier]int{
		TierRaw:  UplinkRawSize[F](n, d),
		TierSign: UplinkSignSize[F](n, d),
		TierInt8: UplinkInt8Size[F](n, d),
	} {
		enc := UplinkEncoderOf[F]{Tier: tier}
		buf, _, _, err := enc.Encode(nil, 1, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != want {
			t.Fatalf("tier %s: encoded %d bytes, size helper says %d", tier, len(buf), want)
		}
	}
}
