package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"byzshield/internal/linalg"
)

func TestGradFrameRoundTrip(t *testing.T)   { testGradFrameRoundTrip[float64](t) }
func TestGradFrame32RoundTrip(t *testing.T) { testGradFrameRoundTrip[float32](t) }

// testGradFrameRoundTrip checks random width-F frames decode bit-exact
// at their documented size.
func testGradFrameRoundTrip[F linalg.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(6)
		d := rng.Intn(40)
		files := make([]int, n)
		grads := make([][]F, n)
		for i := range files {
			files[i] = rng.Intn(1000)
			grads[i] = make([]F, d)
			for j := range grads[i] {
				grads[i][j] = F(rng.NormFloat64())
			}
		}
		worker := rng.Intn(100)
		enc, err := AppendGradFrame(nil, worker, files, grads)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != GradFrameSize[F](n, d) {
			t.Fatalf("encoded %d bytes, GradFrameSize says %d", len(enc), GradFrameSize[F](n, d))
		}
		var f GradFrameOf[F]
		consumed, err := DecodeGradFrame(enc, &f)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(enc) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(enc))
		}
		if f.Worker != worker {
			t.Fatalf("worker %d, want %d", f.Worker, worker)
		}
		if len(f.Files) != n || len(f.Grads) != n {
			t.Fatalf("decoded %d files / %d grads, want %d", len(f.Files), len(f.Grads), n)
		}
		for i := range files {
			if f.Files[i] != files[i] {
				t.Fatalf("file %d decoded as %d, want %d", i, f.Files[i], files[i])
			}
			if !linalg.EqualBits(f.Grads[i], grads[i]) {
				t.Fatalf("grad %d = %v, want %v", i, f.Grads[i], grads[i])
			}
		}
	}
}

func TestGradFrameBitExactSpecials(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	enc, err := AppendGradFrame(nil, 3, []int{9}, [][]float64{specials})
	if err != nil {
		t.Fatal(err)
	}
	var f GradFrame
	if _, err := DecodeGradFrame(enc, &f); err != nil {
		t.Fatal(err)
	}
	for i, want := range specials {
		if math.Float64bits(f.Grads[0][i]) != math.Float64bits(want) {
			t.Errorf("special %d: bits %x, want %x", i,
				math.Float64bits(f.Grads[0][i]), math.Float64bits(want))
		}
	}
}

func TestGradFrameDecodeReusesBuffers(t *testing.T) {
	grads := [][]float64{{1, 2, 3}, {4, 5, 6}}
	enc, err := AppendGradFrame(nil, 0, []int{0, 1}, grads)
	if err != nil {
		t.Fatal(err)
	}
	var f GradFrame
	if _, err := DecodeGradFrame(enc, &f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeGradFrame(enc, &f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state decode allocates %.1f times per call, want 0", allocs)
	}
}

func TestGradFrameEncodeValidation(t *testing.T) {
	if _, err := AppendGradFrame[float64](nil, 0, []int{1}, nil); err == nil {
		t.Error("mismatched files/grads accepted")
	}
	if _, err := AppendGradFrame[float64](nil, -1, nil, nil); err == nil {
		t.Error("negative worker accepted")
	}
	if _, err := AppendGradFrame(nil, 0, []int{-2}, [][]float64{{1}}); err == nil {
		t.Error("negative file id accepted")
	}
	if _, err := AppendGradFrame(nil, 0, []int{0, 1}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged gradients accepted")
	}
}

func TestGradFrameDecodeRejectsCorruptHeaders(t *testing.T) {
	enc, err := AppendGradFrame(nil, 1, []int{2}, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var f GradFrame
	cases := map[string]func([]byte){
		"truncated":        func(b []byte) {}, // handled below by slicing
		"inflated-payload": func(b []byte) { binary.LittleEndian.PutUint32(b, 1<<30) },
		"bad-file-count":   func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 7) },
		"bad-dim":          func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 9) },
	}
	for name, corrupt := range cases {
		b := append([]byte(nil), enc...)
		if name == "truncated" {
			b = b[:len(b)-1]
		}
		corrupt(b)
		if _, err := DecodeGradFrame(b, &f); err == nil {
			t.Errorf("%s: corrupt frame decoded without error", name)
		}
	}
}

// FuzzDecodeGradFrame checks that arbitrary bytes never panic the
// decoder, and that any frame it accepts is canonical: re-encoding the
// decoded frame reproduces exactly the consumed bytes.
func FuzzDecodeGradFrame(f *testing.F)   { fuzzDecodeGradFrame[float64](f) }
func FuzzDecodeGradFrame32(f *testing.F) { fuzzDecodeGradFrame[float32](f) }

// fuzzDecodeGradFrame is the decode fuzz body at width F.
func fuzzDecodeGradFrame[F linalg.Float](f *testing.F) {
	seed, _ := AppendGradFrame(nil, 2, []int{0, 3}, [][]F{{1.5, -2}, {0, 3.25}})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr GradFrameOf[F]
		consumed, err := DecodeGradFrame(data, &fr)
		if err != nil {
			return
		}
		re, err := AppendGradFrame(nil, fr.Worker, fr.Files, fr.Grads)
		if err != nil {
			t.Fatalf("decoded frame fails to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encode differs from consumed bytes:\n got %x\nwant %x", re, data[:consumed])
		}
	})
}

// FuzzGradFrameRoundTrip builds structured frames from fuzzed inputs and
// checks bit-exact decode.
func FuzzGradFrameRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint8(3), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, worker uint32, n, d uint8, raw []byte) {
		files := make([]int, n)
		grads := make([][]float64, n)
		pos := 0
		next := func() byte {
			if len(raw) == 0 {
				return 0
			}
			b := raw[pos%len(raw)]
			pos++
			return b
		}
		for i := range files {
			files[i] = int(next())<<8 | int(next())
			grads[i] = make([]float64, d)
			for j := range grads[i] {
				bits := uint64(next())<<56 | uint64(next())<<40 | uint64(next())<<16 | uint64(next())
				grads[i][j] = math.Float64frombits(bits)
			}
		}
		enc, err := AppendGradFrame(nil, int(worker), files, grads)
		if err != nil {
			t.Fatal(err)
		}
		var fr GradFrame
		consumed, err := DecodeGradFrame(enc, &fr)
		if err != nil {
			t.Fatal(err)
		}
		if consumed != len(enc) || fr.Worker != int(worker) {
			t.Fatalf("consumed=%d/%d worker=%d/%d", consumed, len(enc), fr.Worker, worker)
		}
		for i := range files {
			if fr.Files[i] != files[i] {
				t.Fatalf("file %d: %d != %d", i, fr.Files[i], files[i])
			}
			for j := range grads[i] {
				if math.Float64bits(fr.Grads[i][j]) != math.Float64bits(grads[i][j]) {
					t.Fatalf("grad[%d][%d] bits differ", i, j)
				}
			}
		}
	})
}
