// Package wire implements the compact binary gradient-frame codec: the
// wire format for a worker's per-round gradient report, replacing the
// gob round-trip on the hot path. The layout is canonical (one valid
// encoding per frame) and allocation-free on both sides when buffers
// are reused, which is what the cluster engine's MeasureComm mode and
// the TCP GradientReport message use. The codec lives below both
// internal/cluster and internal/transport so that the transport server
// can drive the cluster round core without an import cycle.
//
// Frame layout, all little-endian:
//
//	u32  payload length (bytes after this field)
//	u32  worker id
//	u32  file count n
//	u32  gradient dimension d (0 when n == 0)
//	n ×  u32 file id
//	n ×  d × gradient values (IEEE-754 bit patterns: f64, or f32 on a
//	     connection that negotiated the float32 precision)
//
// Every codec in this package is generic over the element width
// (linalg.Float): a float32 frame has the same layout with 4-byte value
// words. Precision is connection state, not frame state, so no frame
// carries its width.
//
// Because floats are transported as raw bit patterns, a decode is
// bit-exact: NaN payloads, signed zeros, and subnormals survive the
// round-trip unchanged.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"byzshield/internal/linalg"
)

// gradFrameHeader is the fixed part of the payload: worker, n, d.
const gradFrameHeader = 12

// GradFrameSize returns the encoded size in bytes of a width-F frame
// with n files of dimension d, including the length prefix.
func GradFrameSize[F linalg.Float](n, d int) int {
	return 4 + gradFrameHeader + n*4 + n*d*linalg.Width[F]()
}

// AppendGradFrame appends one encoded frame to dst and returns the
// extended slice. files and grads must have equal length and every
// gradient the same dimension.
func AppendGradFrame[F linalg.Float](dst []byte, worker int, files []int, grads [][]F) ([]byte, error) {
	if len(files) != len(grads) {
		return nil, fmt.Errorf("wire: %d files but %d gradients", len(files), len(grads))
	}
	if worker < 0 || int64(worker) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: worker id %d outside u32 range", worker)
	}
	n := len(files)
	d := 0
	if n > 0 {
		d = len(grads[0])
	}
	for i, g := range grads {
		if len(g) != d {
			return nil, fmt.Errorf("wire: gradient %d has dim %d, want %d", i, len(g), d)
		}
	}
	payload := GradFrameSize[F](n, d) - 4
	if uint64(payload) > math.MaxUint32 {
		return nil, fmt.Errorf("wire: frame payload %d bytes exceeds u32 length prefix", payload)
	}
	dst = append32(dst, uint32(payload))
	dst = append32(dst, uint32(worker))
	dst = append32(dst, uint32(n))
	dst = append32(dst, uint32(d))
	for _, v := range files {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("wire: file id %d outside u32 range", v)
		}
		dst = append32(dst, uint32(v))
	}
	for _, g := range grads {
		dst = AppendFloats(dst, g)
	}
	return dst, nil
}

// GradFrameOf is a decoded width-F gradient frame. Its slices are
// reused across DecodeGradFrame calls when capacities allow, so a
// long-lived frame decodes rounds without allocating.
type GradFrameOf[F linalg.Float] struct {
	Worker int
	Files  []int
	Grads  [][]F
}

// GradFrame is the float64 gradient frame.
type GradFrame = GradFrameOf[float64]

// DecodeGradFrame parses one frame from the front of src into f,
// returning the number of bytes consumed. The frame is validated
// structurally: the payload length must match the declared file count
// and dimension exactly, so arbitrary input can never trigger an
// oversized allocation (the declared sizes are bounded by len(src)).
func DecodeGradFrame[F linalg.Float](src []byte, f *GradFrameOf[F]) (int, error) {
	if len(src) < 4+gradFrameHeader {
		return 0, fmt.Errorf("wire: frame truncated at %d bytes", len(src))
	}
	payload := int(binary.LittleEndian.Uint32(src))
	if payload < gradFrameHeader || payload > len(src)-4 {
		return 0, fmt.Errorf("wire: frame payload %d bytes, have %d", payload, len(src)-4)
	}
	body := src[4 : 4+payload]
	f.Worker = int(binary.LittleEndian.Uint32(body))
	// Sizes are validated with division in uint64 space, so a hostile
	// header cannot overflow the expected-length arithmetic or trigger
	// an oversized allocation (everything is bounded by len(src)).
	w := uint64(linalg.Width[F]())
	n64 := uint64(binary.LittleEndian.Uint32(body[4:]))
	d64 := uint64(binary.LittleEndian.Uint32(body[8:]))
	rem := uint64(payload) - gradFrameHeader
	if n64 == 0 {
		if d64 != 0 || rem != 0 {
			return 0, fmt.Errorf("wire: empty frame declares dim %d with %d payload bytes", d64, rem)
		}
	} else {
		if n64 > rem/4 {
			return 0, fmt.Errorf("wire: frame declares %d files for %d payload bytes", n64, rem)
		}
		valBytes := rem - n64*4
		if valBytes%(n64*w) != 0 || valBytes/(n64*w) != d64 {
			return 0, fmt.Errorf("wire: frame declares %d×%d values for %d value bytes", n64, d64, valBytes)
		}
	}
	n, d := int(n64), int(d64)
	if cap(f.Files) < n {
		f.Files = make([]int, n)
	}
	f.Files = f.Files[:n]
	for i := range f.Files {
		f.Files[i] = int(binary.LittleEndian.Uint32(body[gradFrameHeader+i*4:]))
	}
	growGrads(f, n, d)
	vals := body[gradFrameHeader+n*4:]
	for i, g := range f.Grads {
		DecodeFloats(g, vals[i*d*int(w):])
	}
	return 4 + payload, nil
}

// append32 appends v little-endian.
func append32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}
