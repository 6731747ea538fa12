// Negotiated precision tier (protocol v7). A run may move gradient
// reports and parameter broadcasts as float32 bit patterns — half the
// bytes and half the kernel bandwidth of float64 — with every invariant
// of the codecs intact: canonical encodings, bit-exact round trips, and
// the parameter broadcast's delta base in lockstep across a connection.
//
// Precision is connection state, not frame state: the Hello advertises
// a supported-precisions bitmask, the Welcome pins one Precision for
// the connection, and from then on every gradient/params frame on that
// connection is interpreted at that width. The codecs themselves are
// generic over the element width (linalg.Float), so the frame modes and
// byte layouts are shared; a float32 frame differs only in its 4-byte
// value words, 4-byte XOR payloads, and float32 quantization scales.
package wire

import (
	"fmt"

	"byzshield/internal/linalg"
)

// Precision selects the numeric width of a connection's gradient and
// parameter frames. The zero value is float64, so zero-valued configs
// keep the pre-v7 behavior.
type Precision uint8

const (
	// PrecisionF64 is the full-precision tier (the default).
	PrecisionF64 Precision = 0
	// PrecisionF32 is the reduced-precision tier: every value frame on
	// the connection carries float32 bit patterns.
	PrecisionF32 Precision = 1
)

// Valid reports whether p names a defined precision tier.
func (p Precision) Valid() bool { return p <= PrecisionF32 }

// Mask returns the precision's bit in the Hello supported-precisions
// bitmask.
func (p Precision) Mask() uint8 { return 1 << p }

// String returns the flag spelling of the precision.
func (p Precision) String() string {
	switch p {
	case PrecisionF64:
		return "f64"
	case PrecisionF32:
		return "f32"
	default:
		return fmt.Sprintf("precision(%d)", uint8(p))
	}
}

// ParsePrecision parses the flag spelling of a precision tier.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return PrecisionF64, nil
	case "f32", "float32":
		return PrecisionF32, nil
	default:
		return 0, fmt.Errorf("wire: unknown precision %q (want f64 or f32)", s)
	}
}

// AllPrecisionsMask is the supported-precisions bitmask of a peer
// implementing both tiers (what the v7 worker advertises in its Hello).
const AllPrecisionsMask = uint8(1<<PrecisionF64 | 1<<PrecisionF32)

// PrecisionOf returns the precision tier whose frames carry F values.
func PrecisionOf[F linalg.Float]() Precision {
	if linalg.Width[F]() == 4 {
		return PrecisionF32
	}
	return PrecisionF64
}
