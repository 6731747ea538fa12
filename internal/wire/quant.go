// Quantized uplink gradient frames (protocol v6). Consecutive gradient
// reports decorrelate — each round draws a fresh mini-batch — so a
// lossless uplink codec buys almost nothing (an XOR delta against the
// previous report measured ≈2%); the two lossy tiers in this file cut
// the dominant worker→PS direction by construction instead:
//
//   - sign: one bit per coordinate plus one scale per row — the
//     1-bit SGD shape. The scale is the row's mean absolute value, so
//     the dequantized row ±scale preserves the row's L1 mass.
//   - int8: one byte per coordinate plus per-row (min, scale) — linear
//     quantization onto the 256-point grid [min, min+255·scale] with
//     scale = (max−min)/255.
//
// Both tiers are stateless, like the raw tier: a frame is
// self-contained, so a reconnect resumes mid-stream with no
// resynchronization (and a kill+rejoin under a lossy tier is
// bit-identical to an uninterrupted run).
//
// Determinism is the load-bearing property, not accuracy: the PS votes
// gradient replicas by bit-equality, so every honest replica of a file
// must dequantize to the identical bit pattern. Encode→decode and the
// in-place helpers (SignQuantizeInPlace, Int8QuantizeInPlace) perform
// the identical sequence of float operations, so the in-process engine
// pinned to a tier reproduces the wire path bit-for-bit — including the
// vote and everything downstream of it. A "row" here is whatever slice
// the caller hands the codec: per-shard report frames quantize each
// file's shard coordinate range independently, and the engine mirrors
// that by quantizing per (file, shard range).
//
// Frame layouts, little-endian:
//
//	u8  mode (3 = sign, 4 = int8)
//	u32 worker, u32 n, u32 d, n × u32 file id
//	sign: n × row scale, then n × ⌈d/8⌉ sign bytes (bit j of byte
//	      j/8, LSB first; set = non-negative)
//	int8: n × (row min, row scale), then n × d quantized bytes
//
// Scales are element-width values (f64, or f32 at the float32
// precision) and the quantization arithmetic runs at that width; only
// the int8 tier's final rounding widens to float64 (Go has no float32
// Round).
//
// A sign frame is canonical: scales must carry a clear sign bit and no
// NaN payload (the encoder refuses NaN scales), padding bits in the
// last sign byte must be zero, and a zero-dimension row's scale must be
// +0 — so an accepted frame re-encodes to exactly the consumed bytes
// from its decoded values (scale = |value|, bit = !signbit). Int8
// frames are validated structurally but not forced byte-canonical:
// distinct (min, scale, q) triples can dequantize to the same float
// row, and aggregation only needs the dequantization to be
// deterministic, which it is.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// UplinkTier selects the uplink gradient codec a connection (or the
// in-process engine's measured-communication mode) runs. The zero
// value is the lossless raw tier.
type UplinkTier uint8

const (
	// TierRaw ships self-contained raw gradient frames (uplink.go).
	// The default.
	TierRaw UplinkTier = 0
	// TierSign is the 1-bit tier: sign bits plus a per-row scale.
	TierSign UplinkTier = 1
	// TierInt8 is the linear-quantized tier: one byte per coordinate
	// plus per-row (min, scale).
	TierInt8 UplinkTier = 2
)

// Lossy reports whether the tier discards information (sign or int8).
func (t UplinkTier) Lossy() bool { return t == TierSign || t == TierInt8 }

// Valid reports whether t names a defined tier.
func (t UplinkTier) Valid() bool { return t <= TierInt8 }

// Mask returns the tier's bit in the Hello supported-tiers bitmask.
func (t UplinkTier) Mask() uint8 { return 1 << t }

// frameMode returns the uplink frame mode byte the tier emits, or -1
// for an undefined tier (a value no mode byte carries).
func (t UplinkTier) frameMode() int {
	switch t {
	case TierRaw:
		return UplinkRaw
	case TierSign:
		return UplinkSign
	case TierInt8:
		return UplinkInt8
	default:
		return -1
	}
}

// String returns the flag spelling of the tier.
func (t UplinkTier) String() string {
	switch t {
	case TierRaw:
		return "raw"
	case TierSign:
		return "sign"
	case TierInt8:
		return "int8"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// ParseUplinkTier parses the flag spelling of a tier.
func ParseUplinkTier(s string) (UplinkTier, error) {
	switch s {
	case "raw":
		return TierRaw, nil
	case "sign":
		return TierSign, nil
	case "int8":
		return TierInt8, nil
	default:
		return 0, fmt.Errorf("wire: unknown uplink tier %q (want raw, sign, or int8)", s)
	}
}

// AllTiersMask is the supported-tiers bitmask of a peer implementing
// every tier (what the worker advertises in its Hello by default).
const AllTiersMask = uint8(1<<TierRaw | 1<<TierSign | 1<<TierInt8)

// uplinkQuantHeader is a quantized frame's mode byte plus worker, n,
// and d.
const uplinkQuantHeader = 13

// signBytesPerRow returns the packed sign-bit bytes of one d-wide row.
func signBytesPerRow(d int) int { return (d + 7) / 8 }

// UplinkSignSize returns the encoded size of a width-F sign uplink
// frame with n files of dimension d.
func UplinkSignSize[F linalg.Float](n, d int) int {
	return uplinkQuantHeader + n*4 + n*linalg.Width[F]() + n*signBytesPerRow(d)
}

// UplinkInt8Size returns the encoded size of a width-F int8 uplink
// frame with n files of dimension d.
func UplinkInt8Size[F linalg.Float](n, d int) int {
	return uplinkQuantHeader + n*4 + n*2*linalg.Width[F]() + n*d
}

// absBits clears the sign bit — exact for every value including −0 and
// NaN payloads (math.Abs at float64).
func absBits[F linalg.Float](v F) F {
	return linalg.FromBits[F](linalg.Bits(v) &^ (1 << (8*linalg.Width[F]() - 1)))
}

// signScale returns the sign tier's row scale: the mean absolute
// value, accumulated at the element width (0 for an empty row).
// SignQuantizeInPlace must perform the identical operations.
func signScale[F linalg.Float](g []F) F {
	if len(g) == 0 {
		return 0
	}
	var sum F
	for _, v := range g {
		sum += absBits(v)
	}
	return sum / F(len(g))
}

// int8Params returns the int8 tier's row (min, scale): the row's value
// range mapped onto 255 steps (both 0 for an empty row). A row
// containing NaN propagates it into min/max exactly as the comparison
// loop below does, which Int8QuantizeInPlace mirrors.
func int8Params[F linalg.Float](g []F) (min, scale F) {
	if len(g) == 0 {
		return 0, 0
	}
	min, max := g[0], g[0]
	for _, v := range g[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, (max - min) / 255
}

// int8Quantize maps one value onto the row's grid. The offset and step
// are computed at the element width and only the rounding widens. NaN
// and -Inf arguments clamp to 0, +Inf to 255, so the conversion to
// byte is always defined behavior.
func int8Quantize[F linalg.Float](v, min, scale F) uint8 {
	if scale == 0 {
		return 0
	}
	t := math.Round(float64((v - min) / scale))
	if !(t > 0) {
		return 0
	}
	if t > 255 {
		return 255
	}
	return uint8(t)
}

// SignQuantizeInPlace replaces g with the values a sign-tier
// encode→decode round trip would deliver, using the identical float
// operations, so the in-process engine reproduces the wire path
// bit-for-bit.
func SignQuantizeInPlace[F linalg.Float](g []F) {
	s := signScale(g)
	for j, v := range g {
		if math.Signbit(float64(v)) {
			g[j] = -s
		} else {
			g[j] = s
		}
	}
}

// Int8QuantizeInPlace replaces g with the values an int8-tier
// encode→decode round trip would deliver, using the identical float
// operations.
func Int8QuantizeInPlace[F linalg.Float](g []F) {
	min, scale := int8Params(g)
	for j, v := range g {
		g[j] = min + scale*F(int8Quantize(v, min, scale))
	}
}

// appendQuantHeader appends the shared quantized-frame prefix: mode,
// worker, n, d, file ids.
func appendQuantHeader(dst []byte, mode byte, worker int, files []int, d int) ([]byte, error) {
	if worker < 0 || int64(worker) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: worker id %d outside u32 range", worker)
	}
	dst = append(dst, mode)
	dst = append32(dst, uint32(worker))
	dst = append32(dst, uint32(len(files)))
	dst = append32(dst, uint32(d))
	for _, v := range files {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: file id %d outside u32 range", v)
		}
		dst = append32(dst, uint32(v))
	}
	return dst, nil
}

// appendUplinkSign appends one sign-tier frame. Callers validated the
// files/grads shape (the Encode front door).
func appendUplinkSign[F linalg.Float](dst []byte, worker int, files []int, grads [][]F) ([]byte, error) {
	n := len(files)
	d := 0
	if n > 0 {
		d = len(grads[0])
	}
	dst, err := appendQuantHeader(dst, UplinkSign, worker, files, d)
	if err != nil {
		return nil, err
	}
	for i, g := range grads {
		s := signScale(g)
		if s != s {
			return nil, fmt.Errorf("wire: sign frame row %d has NaN scale (non-finite gradient)", i)
		}
		dst = appendFloat(dst, s)
	}
	bpr := signBytesPerRow(d)
	for _, g := range grads {
		at := len(dst)
		dst = append(dst, make([]byte, bpr)...)
		bits := dst[at:]
		for j, v := range g {
			if !math.Signbit(float64(v)) {
				bits[j/8] |= 1 << (j % 8)
			}
		}
	}
	return dst, nil
}

// appendUplinkInt8 appends one int8-tier frame.
func appendUplinkInt8[F linalg.Float](dst []byte, worker int, files []int, grads [][]F) ([]byte, error) {
	n := len(files)
	d := 0
	if n > 0 {
		d = len(grads[0])
	}
	dst, err := appendQuantHeader(dst, UplinkInt8, worker, files, d)
	if err != nil {
		return nil, err
	}
	for _, g := range grads {
		min, scale := int8Params(g)
		dst = appendFloat(dst, min)
		dst = appendFloat(dst, scale)
	}
	for _, g := range grads {
		at := len(dst)
		dst = append(dst, make([]byte, d)...)
		q := dst[at:]
		min, scale := int8Params(g)
		for j, v := range g {
			q[j] = int8Quantize(v, min, scale)
		}
	}
	return dst, nil
}

// decodeQuantHeader validates the shared quantized-frame prefix
// against the frame's fixed per-row cost and fills f's Worker/Files,
// returning n, d, and the body after the file list. perRow is the
// fixed byte cost of one row beyond its file id (scale fields plus
// value bytes), precomputed in uint64 space so hostile counts cannot
// overflow or trigger oversized allocations — everything is bounded by
// len(src) before n and d are trusted.
func decodeQuantHeader[F linalg.Float](src []byte, f *GradFrameOf[F], scaleBytes int, valueBytes func(d uint64) uint64) (n, d int, body []byte, err error) {
	if len(src) < uplinkQuantHeader {
		return 0, 0, nil, fmt.Errorf("wire: quantized uplink frame truncated at %d bytes", len(src))
	}
	worker := int(binary.LittleEndian.Uint32(src[1:]))
	n64 := uint64(binary.LittleEndian.Uint32(src[5:]))
	d64 := uint64(binary.LittleEndian.Uint32(src[9:]))
	rem := uint64(len(src) - uplinkQuantHeader)
	if n64 > 0 && n64 > rem/4 {
		return 0, 0, nil, fmt.Errorf("wire: quantized frame declares %d files for %d bytes", n64, rem)
	}
	if n64 == 0 && d64 != 0 {
		return 0, 0, nil, fmt.Errorf("wire: empty quantized frame declares dim %d", d64)
	}
	perRow := uint64(scaleBytes) + valueBytes(d64)
	if n64 > 0 && (rem-n64*4)/n64 < perRow {
		return 0, 0, nil, fmt.Errorf("wire: quantized frame declares %d×%d values for %d bytes", n64, d64, rem)
	}
	n, d = int(n64), int(d64)
	f.Worker = worker
	if cap(f.Files) < n {
		f.Files = make([]int, n)
	}
	f.Files = f.Files[:n]
	for i := range f.Files {
		f.Files[i] = int(binary.LittleEndian.Uint32(src[uplinkQuantHeader+i*4:]))
	}
	return n, d, src[uplinkQuantHeader+n*4:], nil
}

// growGrads sizes f.Grads to n rows of d values under the
// DecodeGradFrame buffer-reuse contract.
func growGrads[F linalg.Float](f *GradFrameOf[F], n, d int) {
	if cap(f.Grads) < n {
		grads := make([][]F, n)
		copy(grads, f.Grads)
		f.Grads = grads
	}
	f.Grads = f.Grads[:n]
	for i := 0; i < n; i++ {
		if cap(f.Grads[i]) < d {
			f.Grads[i] = make([]F, d)
		}
		f.Grads[i] = f.Grads[i][:d]
	}
}

// decodeUplinkSign parses one sign frame into f, returning the bytes
// consumed. Scales with a set sign bit or NaN payload, set padding
// bits, and a nonzero empty-row scale are rejected, so any accepted
// frame re-encodes to exactly the consumed bytes.
func decodeUplinkSign[F linalg.Float](src []byte, f *GradFrameOf[F]) (int, error) {
	w := linalg.Width[F]()
	bpr := uint64(0)
	n, d, body, err := decodeQuantHeader(src, f, w, func(d uint64) uint64 {
		bpr = (d + 7) / 8
		return bpr
	})
	if err != nil {
		return 0, err
	}
	if uint64(len(body)) < uint64(n)*(uint64(w)+bpr) {
		return 0, fmt.Errorf("wire: sign frame truncated: %d rows need %d bytes, have %d", n, uint64(n)*(uint64(w)+bpr), len(body))
	}
	growGrads(f, n, d)
	bits := body[n*w:]
	for i := 0; i < n; i++ {
		s, sb := readFloat[F](body[i*w:])
		if math.Signbit(float64(s)) || s != s {
			return 0, fmt.Errorf("wire: sign frame row %d has non-canonical scale", i)
		}
		if d == 0 && sb != 0 {
			return 0, fmt.Errorf("wire: sign frame empty row %d has nonzero scale", i)
		}
		row := bits[uint64(i)*bpr:]
		g := f.Grads[i]
		for j := 0; j < d; j++ {
			if row[j/8]&(1<<(j%8)) != 0 {
				g[j] = s
			} else {
				g[j] = -s
			}
		}
		if d%8 != 0 && row[bpr-1]>>(d%8) != 0 {
			return 0, fmt.Errorf("wire: sign frame row %d has set padding bits", i)
		}
	}
	return uplinkQuantHeader + n*4 + n*w + n*int(bpr), nil
}

// decodeUplinkInt8 parses one int8 frame into f, returning the bytes
// consumed. Validation is structural only (see the package comment):
// dequantization of any accepted frame is deterministic, which is the
// property the vote needs.
func decodeUplinkInt8[F linalg.Float](src []byte, f *GradFrameOf[F]) (int, error) {
	w := linalg.Width[F]()
	n, d, body, err := decodeQuantHeader(src, f, 2*w, func(d uint64) uint64 { return d })
	if err != nil {
		return 0, err
	}
	if uint64(len(body)) < uint64(n)*(uint64(2*w)+uint64(d)) {
		return 0, fmt.Errorf("wire: int8 frame truncated: %d rows need %d bytes, have %d", n, uint64(n)*(uint64(2*w)+uint64(d)), len(body))
	}
	growGrads(f, n, d)
	vals := body[n*2*w:]
	for i := 0; i < n; i++ {
		min, _ := readFloat[F](body[i*2*w:])
		scale, _ := readFloat[F](body[i*2*w+w:])
		q := vals[i*d:]
		g := f.Grads[i]
		for j := 0; j < d; j++ {
			g[j] = min + scale*F(q[j])
		}
	}
	return uplinkQuantHeader + n*4 + n*2*w + n*d, nil
}
