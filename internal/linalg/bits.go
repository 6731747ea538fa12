package linalg

import (
	"math"
	"unsafe"
)

// Bit-pattern helpers. The protocol moves and votes on vectors by their
// exact IEEE-754 bit patterns (NaN payloads and signed zeros included),
// at either width. The width test is on unsafe.Sizeof of the element,
// which the compiler folds per instantiation, so the float64 helpers
// compile to exactly math.Float64bits/Float64frombits.

// Width returns the byte width of F's bit pattern (4 or 8).
func Width[F Float]() int {
	var z F
	return int(unsafe.Sizeof(z))
}

// Bits returns v's IEEE-754 bit pattern, zero-extended to 64 bits.
func Bits[F Float](v F) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// FromBits returns the F whose bit pattern is the low Width[F]() bytes
// of b.
func FromBits[F Float](b uint64) F {
	var z F
	if unsafe.Sizeof(z) == 4 {
		return F(math.Float32frombits(uint32(b)))
	}
	return F(math.Float64frombits(b))
}

// EqualBits compares vectors by bit patterns (NaN equals itself, +0 and
// −0 differ) — the exact-vote equality. Equal bit patterns are equal
// bytes, so it compares the vectors' memory with the runtime's
// vectorized memequal.
func EqualBits[F Float](a, b []F) bool {
	if len(a) != len(b) {
		return false
	}
	return string(byteView(a)) == string(byteView(b))
}

// byteView returns v's memory as bytes (nil for an empty v).
func byteView[F Float](v []F) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*Width[F]())
}
