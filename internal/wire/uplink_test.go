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

// TestUplinkStreamRoundTrip drives several rounds of correlated
// reports through an encoder/decoder pair: the first frame must be raw
// (no base), later frames must pick delta in this regime and save
// bytes, and every decode must be bit-exact.
func TestUplinkStreamRoundTrip(t *testing.T) { testUplinkStreamRoundTrip[float64](t) }

// TestUplink32DeltaStream runs the streaming round trip at float32.
func TestUplink32DeltaStream(t *testing.T) { testUplinkStreamRoundTrip[float32](t) }

// testUplinkStreamRoundTrip is the streaming round trip at width F.
func testUplinkStreamRoundTrip[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := []int{2, 7, 19}
	grads := reportOf[F](rng, 3, 50)
	var enc UplinkEncoderOf[F]
	var dec UplinkDecoderOf[F]
	var f GradFrameOf[F]
	sawDelta := false
	for round := 0; round < 6; round++ {
		frame, mode, rawSize, err := enc.Encode(nil, 4, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && mode != UplinkRaw {
			t.Fatalf("first frame mode %d, want raw", mode)
		}
		if mode == UplinkDelta {
			sawDelta = true
			if len(frame) >= rawSize {
				t.Fatalf("round %d: delta frame %d bytes, raw would be %d", round, len(frame), rawSize)
			}
		}
		if gotMode := decodeOne(t, &dec, frame, &f); gotMode != mode {
			t.Fatalf("round %d: decoder saw mode %d, encoder sent %d", round, gotMode, mode)
		}
		checkReport(t, &f, 4, files, grads)
		grads = perturbReport(rng, grads)
	}
	if !sawDelta {
		t.Error("correlated stream never chose a delta frame")
	}
}

// TestUplinkSelfSelectsRaw: when consecutive reports are fully
// decorrelated (different signs and exponents everywhere), the delta
// encoding is larger than raw and the encoder must fall back.
func TestUplinkSelfSelectsRaw(t *testing.T) {
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
	frame, _, _, err := enc.Encode(nil, 0, files, a)
	if err != nil {
		t.Fatal(err)
	}
	decodeOne(t, &dec, frame, &f)
	frame, mode, rawSize, err := enc.Encode(nil, 0, files, b)
	if err != nil {
		t.Fatal(err)
	}
	if mode != UplinkRaw {
		t.Fatalf("decorrelated report chose mode %d, want raw fallback", mode)
	}
	if len(frame) != rawSize {
		t.Fatalf("raw frame %d bytes, rawSize says %d", len(frame), rawSize)
	}
	decodeOne(t, &dec, frame, &f)
	checkReport(t, &f, 0, files, b)
}

// TestUplinkNoDelta: the raw tier forces raw frames and drops the
// delta base, so switching to the delta tier mid-stream restarts like
// a fresh connection — one raw frame rebuilds the base, then deltas
// resume.
func TestUplinkNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	files := []int{1, 2}
	grads := report(rng, 2, 40)
	enc := UplinkEncoder{Tier: TierRaw}
	var dec UplinkDecoder
	var f GradFrame
	for round := 0; round < 3; round++ {
		frame, mode, _, err := enc.Encode(nil, 1, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != UplinkRaw {
			t.Fatalf("round %d: raw-tier encoder chose mode %d", round, mode)
		}
		decodeOne(t, &dec, frame, &f)
		grads = perturbReport(rng, grads)
	}
	// Switch to the delta tier: no base is held, so the first
	// post-switch frame is raw (rebuilding the base) and the one after
	// it deltas.
	enc.Tier = TierDelta
	for i, want := range []int{UplinkRaw, UplinkDelta} {
		frame, mode, _, err := enc.Encode(nil, 1, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if mode != want {
			t.Fatalf("post-flip frame %d mode %d, want %d", i, mode, want)
		}
		decodeOne(t, &dec, frame, &f)
		checkReport(t, &f, 1, files, grads)
		grads = perturbReport(rng, grads)
	}
}

// TestUplinkDecoderNoDelta: a raw-tier decoder holds no base — raw
// frames decode without the per-report base copy, and a delta frame
// arriving anyway (a buggy or hostile worker on a raw-only stream) is
// rejected instead of being applied against a stale vector.
func TestUplinkDecoderNoDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	files := []int{1, 2}
	grads := report(rng, 2, 40)
	var enc UplinkEncoder
	dec := UplinkDecoder{Tier: TierRaw}
	var f GradFrame
	raw, mode, _, err := enc.Encode(nil, 1, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	if mode != UplinkRaw {
		t.Fatalf("first frame mode %d, want raw", mode)
	}
	decodeOne(t, &dec, raw, &f)
	checkReport(t, &f, 1, files, grads)
	delta, mode, _, err := enc.Encode(nil, 1, files, perturbReport(rng, grads))
	if err != nil {
		t.Fatal(err)
	}
	if mode != UplinkDelta {
		t.Fatalf("second frame mode %d, want delta", mode)
	}
	if _, _, err := dec.Decode(delta, &f); err == nil {
		t.Error("raw-tier decoder accepted a delta frame")
	}
}

// TestUplinkSpecialValues: NaN payloads, infinities, and signed zeros
// survive the delta round-trip bit-for-bit.
func TestUplinkSpecialValues(t *testing.T) {
	files := []int{3}
	a := [][]float64{{0, math.Copysign(0, -1), 1, math.Inf(1), math.NaN(), 2}}
	b := [][]float64{{math.Copysign(0, -1), 0, math.NaN(), 1, math.Inf(-1), 2}}
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

// TestUplinkDecoderRejects: no-base deltas, base mismatches, unknown
// modes, truncation, and non-canonical lengths are all errors, and a
// failed decode leaves the base untouched.
func TestUplinkDecoderRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	files := []int{1, 4}
	grads := report(rng, 2, 6)
	var enc UplinkEncoder
	raw, _, _, err := enc.Encode(nil, 3, files, grads)
	if err != nil {
		t.Fatal(err)
	}
	next := perturbReport(rng, grads)
	delta, mode, _, err := enc.Encode(nil, 3, files, next)
	if err != nil {
		t.Fatal(err)
	}
	if mode != UplinkDelta {
		t.Fatalf("second frame mode %d, want delta", mode)
	}

	var f GradFrame
	fresh := &UplinkDecoder{}
	if _, _, err := fresh.Decode(delta, &f); err == nil {
		t.Error("delta with no base accepted")
	}

	based := &UplinkDecoder{}
	if _, _, err := based.Decode(raw, &f); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad mode":     {9, 0, 0},
		"truncated":    delta[:len(delta)-1],
		"wrong file":   func() []byte { b := slices.Clone(delta); b[uplinkDeltaHeader]++; return b }(),
		"wrong counts": func() []byte { b := slices.Clone(delta); b[5] = 7; return b }(),
	}
	for name, frame := range cases {
		if _, _, err := based.Decode(frame, &f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The failed decodes must not have moved the base: the true delta
	// still applies and reproduces the second report exactly.
	if _, _, err := based.Decode(delta, &f); err != nil {
		t.Fatalf("base moved by a rejected frame: %v", err)
	}
	checkReport(t, &f, 3, files, next)
}

// FuzzUplinkRoundTrip builds two reports from fuzz bits, streams them
// through an encoder/decoder pair, and requires bit-exact recovery
// regardless of which mode the encoder selected.
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

// FuzzDecodeUplink feeds arbitrary bytes to a lossless-tier decoder
// (delta, or raw when the tier byte is odd) holding a known base:
// decoding must never panic, a raw-tier decoder accepts only raw
// frames, and any accepted frame must be canonical — re-encoding the
// decoded report against the original base reproduces exactly the
// consumed bytes. The lossy tiers have their own targets.
func FuzzDecodeUplink(f *testing.F)   { fuzzDecodeUplink[float64](f) }
func FuzzDecodeUplink32(f *testing.F) { fuzzDecodeUplink[float32](f) }

// fuzzDecodeUplink is the uplink decode fuzz body at width F.
func fuzzDecodeUplink[F linalg.Float](f *testing.F) {
	baseGrads := [][]F{{1, -2, 0.5}, {3, 0, -0.25}}
	baseFiles := []int{2, 9}
	var seedEnc UplinkEncoderOf[F]
	seedRaw, _, _, _ := seedEnc.Encode(nil, 1, baseFiles, baseGrads)
	seedDelta, _, _, _ := seedEnc.Encode(nil, 1, baseFiles,
		[][]F{{1.0001, -2, 0.5}, {3, 0.5, -0.25}})
	f.Add(seedRaw, uint8(0))
	f.Add(seedDelta, uint8(0))
	f.Add([]byte{UplinkDelta, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(0))
	f.Add(seedRaw, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, tierByte uint8) {
		tier := TierDelta
		if tierByte%2 == 1 {
			tier = TierRaw
		}
		// Install the known base in both directions.
		var enc UplinkEncoderOf[F]
		dec := UplinkDecoderOf[F]{Tier: tier}
		frame, _, _, err := enc.Encode(nil, 1, baseFiles, baseGrads)
		if err != nil {
			t.Fatal(err)
		}
		var fr GradFrameOf[F]
		if _, _, err := dec.Decode(frame, &fr); err != nil {
			t.Fatal(err)
		}
		mode, consumed, err := dec.Decode(data, &fr)
		if err != nil {
			return
		}
		if tier == TierRaw && mode != UplinkRaw {
			t.Fatalf("raw-tier decoder accepted mode %d", mode)
		}
		var re []byte
		if mode == UplinkRaw {
			re = append(re, UplinkRaw)
			re, err = AppendGradFrame(re, fr.Worker, fr.Files, fr.Grads)
			if err != nil {
				t.Fatalf("accepted raw frame fails to re-encode: %v", err)
			}
		} else {
			// Rebuild an encoder holding the original base: the accepted
			// delta must re-encode from it byte-for-byte.
			var reEnc UplinkEncoderOf[F]
			if _, _, _, err := reEnc.Encode(nil, fr.Worker, baseFiles, baseGrads); err != nil {
				t.Fatal(err)
			}
			re, err = reEnc.appendDelta(nil, fr.Worker, fr.Files, fr.Grads)
			if err != nil {
				t.Fatalf("accepted delta frame fails to re-encode: %v", err)
			}
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}
