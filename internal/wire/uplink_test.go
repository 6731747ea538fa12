package wire

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"byzshield/internal/linalg"
)

// report builds a deterministic n×d float64 gradient report.
func report(rng *rand.Rand, n, d int) [][]float64 { return reportOf[float64](rng, n, d) }

// reportOf builds a deterministic n×d gradient report at width F.
func reportOf[F linalg.Float](rng *rand.Rand, n, d int) [][]F {
	grads := make([][]F, n)
	for i := range grads {
		grads[i] = randVec[F](rng, d)
	}
	return grads
}

// perturbReport adds SGD-noise-sized jitter, leaving some values
// exactly unchanged (the correlated-consecutive-reports regime).
func perturbReport[F linalg.Float](rng *rand.Rand, grads [][]F) [][]F {
	out := make([][]F, len(grads))
	for i, g := range grads {
		out[i] = perturb(rng, g)
	}
	return out
}

// decodeOne decodes a single uplink frame, requiring full consumption.
func decodeOne[F linalg.Float](t *testing.T, dec *UplinkDecoderOf[F], frame []byte, f *GradFrameOf[F]) int {
	t.Helper()
	mode, consumed, err := dec.Decode(frame, f)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(frame) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(frame))
	}
	return mode
}

// checkReport compares a decoded frame against the expected report
// bit-for-bit.
func checkReport[F linalg.Float](t *testing.T, f *GradFrameOf[F], worker int, files []int, grads [][]F) {
	t.Helper()
	if f.Worker != worker {
		t.Fatalf("worker %d, want %d", f.Worker, worker)
	}
	if !slices.Equal(f.Files, files) {
		t.Fatalf("files %v, want %v", f.Files, files)
	}
	for i, g := range grads {
		for j, v := range g {
			if linalg.Bits(f.Grads[i][j]) != linalg.Bits(v) {
				t.Fatalf("value (%d,%d): bits %x, want %x", i, j,
					linalg.Bits(f.Grads[i][j]), linalg.Bits(v))
			}
		}
	}
}

// TestUplinkStreamRoundTrip drives several rounds of reports through
// one raw encoder, then decodes the frames through one decoder in
// reverse order: the codec holds no stream state, so every frame must
// decode bit-exact in any order, at exactly the raw size.
func TestUplinkStreamRoundTrip(t *testing.T) { testUplinkStreamRoundTrip[float64](t) }

// TestUplink32DeltaStream runs the any-order stream round trip at
// float32.
func TestUplink32DeltaStream(t *testing.T) { testUplinkStreamRoundTrip[float32](t) }

// testUplinkStreamRoundTrip is the any-order stream round trip at
// width F.
func testUplinkStreamRoundTrip[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := []int{2, 7, 19}
	grads := reportOf[F](rng, 3, 50)
	var enc UplinkEncoderOf[F]
	var reports [][][]F
	var frames [][]byte
	for round := 0; round < 6; round++ {
		frame, mode, rawSize, err := enc.Encode(nil, 4, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != UplinkRaw || len(frame) != rawSize {
			t.Fatalf("round %d: mode %d, %d bytes; want raw at %d", round, mode, len(frame), rawSize)
		}
		reports = append(reports, grads)
		frames = append(frames, frame)
		grads = perturbReport(rng, grads)
	}
	var dec UplinkDecoderOf[F]
	var f GradFrameOf[F]
	for i := len(frames) - 1; i >= 0; i-- {
		if mode := decodeOne(t, &dec, frames[i], &f); mode != UplinkRaw {
			t.Fatalf("frame %d: decoder saw mode %d", i, mode)
		}
		checkReport(t, &f, 4, files, reports[i])
	}
}

// TestUplinkSelfSelectsRaw: the zero-value tier is raw, so a zero
// encoder ships raw frames whatever the reports look like — correlated
// or fully decorrelated — and a zero decoder takes them.
func TestUplinkSelfSelectsRaw(t *testing.T) {
	var zero UplinkTier
	if zero != TierRaw {
		t.Fatalf("zero tier is %s, want raw", zero)
	}
	files := []int{0}
	a := [][]float64{make([]float64, 16)}
	b := [][]float64{make([]float64, 16)}
	for j := range a[0] {
		a[0][j] = 1e-300
		b[0][j] = -1e300 * float64(j+1)
	}
	var enc UplinkEncoder
	var dec UplinkDecoder
	var f GradFrame
	for _, grads := range [][][]float64{a, a, b} {
		frame, mode, rawSize, err := enc.Encode(nil, 0, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != UplinkRaw || len(frame) != rawSize {
			t.Fatalf("zero encoder chose mode %d at %d bytes, want raw at %d", mode, len(frame), rawSize)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 0, files, grads)
	}
}

// TestUplinkNoDelta: encoding is a pure function of the report and
// the tier — the same report encodes to the same bytes every time, and
// switching tiers mid-stream needs no reset: the next frame is simply
// in the new tier.
func TestUplinkNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	files := []int{1, 2}
	grads := report(rng, 2, 40)
	var enc UplinkEncoder
	first, _, _, err := enc.Encode(nil, 1, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	for i, tier := range []UplinkTier{TierInt8, TierRaw, TierSign, TierRaw} {
		enc.Tier = tier
		frame, mode, _, err := enc.Encode(nil, 1, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != tier.frameMode() {
			t.Fatalf("switch %d to %s: mode %d", i, tier, mode)
		}
		dec := UplinkDecoder{Tier: tier}
		var f GradFrame
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 1, files, quantizeReport(tier, grads))
		if tier == TierRaw && !bytes.Equal(frame, first) {
			t.Fatalf("switch %d: raw re-encode of the same report differs", i)
		}
	}
}

// TestUplinkDecoderNoDelta: mode 2, the XOR-delta frame of protocols
// v3–v7, is rejected by every tier's decoder, and a raw decoder takes
// raw frames with no earlier report.
func TestUplinkDecoderNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	files := []int{1, 2}
	grads := report(rng, 2, 40)
	var enc UplinkEncoder
	raw, _, _, err := enc.Encode(nil, 1, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	var f GradFrame
	decodeOne(t, &UplinkDecoder{}, raw, &f)
	checkReport(t, &f, 1, files, grads)
	for _, tier := range []UplinkTier{TierRaw, TierSign, TierInt8} {
		dec := UplinkDecoder{Tier: tier}
		if _, _, err := dec.Decode(formerDeltaFrame, &f); err == nil {
			t.Errorf("%s decoder accepted a mode-2 frame", tier)
		}
	}
}

// formerDeltaFrame is a well-formed protocol-v7 XOR-delta uplink frame
// (mode 2: worker 1, files {2, 9}, d = 3, every XOR zero), which no
// decoder accepts since v8.
var formerDeltaFrame = []byte{2, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0}

// TestUplinkSpecialValues: NaN payloads, infinities, and signed zeros
// survive the raw round trip bit-for-bit.
func TestUplinkSpecialValues(t *testing.T) {
	files := []int{3}
	a := [][]float64{{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), 2}}
	b := [][]float64{{math.Copysign(0, -1), 0, math.Float64frombits(0x7FF8_0000_DEAD_BEEF), 1, math.Inf(-1), 2}}
	var enc UplinkEncoder
	var dec UplinkDecoder
	var f GradFrame
	for _, grads := range [][][]float64{a, b} {
		frame, _, _, err := enc.Encode(nil, 2, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 2, files, grads)
	}
}

// TestUplinkDecoderRejects: empty frames, unknown and former modes,
// truncation, and corrupt counts are all errors, and a failed decode
// leaves nothing behind — the next good frame decodes exactly.
func TestUplinkDecoderRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	files := []int{1, 4}
	grads := report(rng, 2, 6)
	var enc UplinkEncoder
	raw, _, _, err := enc.Encode(nil, 3, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	var f GradFrame
	var dec UplinkDecoder
	cases := map[string][]byte{
		"empty":        {},
		"bad mode":     {9, 0, 0},
		"former delta": formerDeltaFrame,
		"truncated":    raw[:len(raw)-1],
		"wrong counts": func() []byte { b := slices.Clone(raw); b[9] = 7; return b }(),
	}
	for name, frame := range cases {
		if _, _, err := dec.Decode(frame, &f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	decodeOne(t, &dec, raw, &f)
	checkReport(t, &f, 3, files, grads)
}

// FuzzUplinkRoundTrip builds two reports from fuzz bits, streams them
// through a raw encoder/decoder pair, and requires bit-exact recovery.
func FuzzUplinkRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{10, 9, 8, 7, 6})
	f.Add([]byte{}, []byte{0xFF})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		d := len(rawA) / 8
		if d > 32 {
			d = 32
		}
		if d == 0 {
			return
		}
		at := func(raw []byte, i int) uint64 {
			var x uint64
			for b := 0; b < 8; b++ {
				if i*8+b < len(raw) {
					x |= uint64(raw[i*8+b]) << (8 * b)
				}
			}
			return x
		}
		files := []int{5}
		a := [][]float64{make([]float64, d)}
		b := [][]float64{make([]float64, d)}
		for i := 0; i < d; i++ {
			a[0][i] = math.Float64frombits(at(rawA, i))
			b[0][i] = math.Float64frombits(at(rawB, i))
		}
		var enc UplinkEncoder
		var dec UplinkDecoder
		var fr GradFrame
		for _, grads := range [][][]float64{a, b} {
			frame, _, _, err := enc.Encode(nil, 1, files, grads)
			if err != nil {
				t.Fatal(err)
			}
			_, consumed, err := dec.Decode(frame, &fr)
			if err != nil {
				t.Fatal(err)
			}
			if consumed != len(frame) {
				t.Fatalf("consumed %d of %d", consumed, len(frame))
			}
			for i := 0; i < d; i++ {
				if math.Float64bits(fr.Grads[0][i]) != math.Float64bits(grads[0][i]) {
					t.Fatalf("value %d differs", i)
				}
			}
		}
	})
}

// FuzzDecodeUplink feeds arbitrary bytes to the decoder of the tier the
// tier byte selects (raw, sign, or int8, modulo 3): decoding must never
// panic, a decoder accepts only its own tier's mode — mode 2, the
// former XOR-delta frame, never — and an accepted raw frame must be
// canonical, re-encoding to exactly the consumed bytes. The lossy
// tiers' canonical forms have their own targets.
func FuzzDecodeUplink(f *testing.F)   { fuzzDecodeUplink[float64](f) }
func FuzzDecodeUplink32(f *testing.F) { fuzzDecodeUplink[float32](f) }

// fuzzDecodeUplink is the uplink decode fuzz body at width F.
func fuzzDecodeUplink[F linalg.Float](f *testing.F) {
	grads := [][]F{{1, -2, 0.5}, {3, 0, -0.25}}
	files := []int{2, 9}
	var seedEnc UplinkEncoderOf[F]
	seedRaw, _, _, _ := seedEnc.Encode(nil, 1, files, grads)
	seedEnc.Tier = TierSign
	seedSign, _, _, _ := seedEnc.Encode(nil, 1, files, grads)
	f.Add(seedRaw, uint8(0))
	f.Add(seedSign, uint8(1))
	f.Add([]byte{2, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(0))
	f.Add(seedRaw, uint8(1))
	for tier := uint8(0); tier < 3; tier++ {
		f.Add(formerDeltaFrame, tier)
	}
	f.Fuzz(func(t *testing.T, data []byte, tierByte uint8) {
		tier := UplinkTier(tierByte % 3)
		dec := UplinkDecoderOf[F]{Tier: tier}
		var fr GradFrameOf[F]
		mode, consumed, err := dec.Decode(data, &fr)
		if err != nil {
			return
		}
		if data[0] == 2 || mode != tier.frameMode() {
			t.Fatalf("%s decoder accepted mode %d", tier, data[0])
		}
		if mode != UplinkRaw {
			return
		}
		re, err := AppendGradFrame([]byte{UplinkRaw}, fr.Worker, fr.Files, fr.Grads)
		if err != nil {
			t.Fatalf("accepted raw frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}
