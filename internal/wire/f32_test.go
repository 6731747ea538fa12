package wire

import (
	"testing"
)

func TestPrecision(t *testing.T) {
	if PrecisionF64 != 0 {
		t.Fatal("f64 must be the zero value so legacy configs stay full precision")
	}
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		if !p.Valid() {
			t.Fatalf("%s not valid", p)
		}
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
		if AllPrecisionsMask&p.Mask() == 0 {
			t.Fatalf("%s missing from AllPrecisionsMask", p)
		}
	}
	if Precision(2).Valid() {
		t.Fatal("precision 2 must be invalid")
	}
	if _, err := ParsePrecision("f16"); err == nil {
		t.Fatal("want error for unknown precision")
	}
}
