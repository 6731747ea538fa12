// Uplink gradient-report codec. The worker→PS direction is the
// dominant byte mover of a training round: every worker ships its
// per-file gradient sums every round. The codec is tiered (UplinkTier):
// this file owns the lossless raw tier, the zero value, which wraps a
// self-contained gradient frame, and quant.go owns the two lossy
// quantized tiers (sign, int8). Every tier is stateless — a frame
// decodes on its own, with no base report held on either side — so
// frames of one stream decode in any order and a reconnect resumes
// mid-stream with no resynchronization.
//
// Encoder and decoder carry the negotiated tier and dispatch on it; a
// decoder accepts exactly the frame mode its tier emits, so a peer
// that sends outside the negotiated tier poisons its stream instead of
// silently changing codecs.
//
// Frame layout, little-endian:
//
//	u8  mode (1 = raw, 3 = sign, 4 = int8; see quant.go for the
//	    quantized layouts)
//	raw: one gradient frame (codec.go: u32 payload length, u32
//	     worker, u32 n, u32 d, n×u32 file ids, n×d value bit patterns)
//
// Mode 2 belonged to the XOR-delta tier of protocols v3–v7 and is
// rejected by every decoder.
package wire

import (
	"fmt"

	"byzshield/internal/linalg"
)

// Uplink frame modes.
const (
	// UplinkRaw wraps a self-contained gradient frame.
	UplinkRaw = 1
	// UplinkSign is a 1-bit quantized frame (quant.go).
	UplinkSign = 3
	// UplinkInt8 is a linear-quantized frame (quant.go).
	UplinkInt8 = 4
)

// UplinkRawSize returns the encoded size of a raw width-F uplink frame
// with n files of dimension d.
func UplinkRawSize[F linalg.Float](n, d int) int { return 1 + GradFrameSize[F](n, d) }

// UplinkEncoderOf is the worker side of the uplink codec. It holds no
// stream state, so one encoder serves every frame of a connection,
// across shards and reconnects.
type UplinkEncoderOf[F linalg.Float] struct {
	// Tier selects the codec (the connection's negotiated tier,
	// announced by the PS in its Welcome).
	Tier UplinkTier
}

// UplinkEncoder is the float64 uplink encoder.
type UplinkEncoder = UplinkEncoderOf[float64]

// Encode appends one uplink frame for the report (worker, files,
// grads) to dst in the encoder's tier. It returns the extended buffer,
// the frame mode, and the size a raw frame would have had (the
// uncompressed cost, for accounting the realized ratio). files and
// grads follow the AppendGradFrame contract.
func (e *UplinkEncoderOf[F]) Encode(dst []byte, worker int, files []int, grads [][]F) (out []byte, mode, rawSize int, err error) {
	if len(files) != len(grads) {
		return nil, 0, 0, fmt.Errorf("wire: %d files but %d gradients", len(files), len(grads))
	}
	n := len(files)
	d := 0
	if n > 0 {
		d = len(grads[0])
	}
	for i, g := range grads {
		if len(g) != d {
			return nil, 0, 0, fmt.Errorf("wire: gradient %d has dim %d, want %d", i, len(g), d)
		}
	}
	switch e.Tier {
	case TierRaw:
		out, err = AppendGradFrame(append(dst, UplinkRaw), worker, files, grads)
	case TierSign:
		out, err = appendUplinkSign(dst, worker, files, grads)
	case TierInt8:
		out, err = appendUplinkInt8(dst, worker, files, grads)
	default:
		err = fmt.Errorf("wire: unknown uplink tier %s", e.Tier)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return out, e.Tier.frameMode(), UplinkRawSize[F](n, d), nil
}

// UplinkDecoderOf is the PS side of the uplink codec for one worker
// connection. Like the encoder it holds no stream state: its Tier
// mirrors the connection's negotiated tier and bounds what it accepts.
type UplinkDecoderOf[F linalg.Float] struct {
	Tier UplinkTier
}

// UplinkDecoder is the float64 uplink decoder.
type UplinkDecoder = UplinkDecoderOf[float64]

// Reset is a no-op: the decoder keeps no state between frames. It
// stays so callers that reset per stream keep compiling.
func (dec *UplinkDecoderOf[F]) Reset() {}

// Decode parses one uplink frame from the front of src into f (the
// DecodeGradFrame buffer-reuse contract), returning the mode and bytes
// consumed. A frame whose mode is not the decoder's tier is an error,
// as is any malformed frame; the caller evicts the connection.
func (dec *UplinkDecoderOf[F]) Decode(src []byte, f *GradFrameOf[F]) (mode, consumed int, err error) {
	if len(src) < 1 {
		return 0, 0, fmt.Errorf("wire: empty uplink frame")
	}
	mode = int(src[0])
	if mode != dec.Tier.frameMode() {
		return 0, 0, fmt.Errorf("wire: uplink frame mode %d outside negotiated tier %s", mode, dec.Tier)
	}
	switch mode {
	case UplinkRaw:
		consumed, err = DecodeGradFrame(src[1:], f)
		consumed++
	case UplinkSign:
		consumed, err = decodeUplinkSign(src, f)
	default: // UplinkInt8, the only tier mode left
		consumed, err = decodeUplinkInt8(src, f)
	}
	if err != nil {
		return 0, 0, err
	}
	return mode, consumed, nil
}
