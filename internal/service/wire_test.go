package service

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONFloat checks appendJSONFloat against json.Marshal for any
// float64 bit pattern: the same bytes for every finite value, and for NaN
// and ±Inf, which JSON cannot carry, a Marshal error (the records never
// write one). The seeds sit on the format's edges: signed zeros,
// subnormals, both sides of the 1e-6 and 1e21 switches to exponent form,
// the largest float and a one-digit negative exponent.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1023, 9.99e-7, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		math.MaxFloat64, -math.MaxFloat64, 1e-9, 1.5e-9, 123456789.125, 1.0 / 3,
		math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(v)
		if !finite(v) {
			if err == nil {
				t.Fatalf("json.Marshal(%v) = %s, want an error", v, want)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("x"), v)[1:]; !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): wrote %s, json.Marshal %s", v, bits, got, want)
		}
	})
}

// TestJSONStringMatchesMarshal checks appendJSONString against
// json.Marshal, and that jsonPlain holds only of text Marshal writes as it
// is, on every byte value and on the characters encoding/json treats
// apart: HTML characters, control bytes, U+2028 and U+2029, and invalid
// UTF-8.
func TestJSONStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "random(n=64,seed=1)", "[0 1] -> [1 1]", `a"b\c`, "<&>", "tab\there\nnl\r\b\f\x00\x1f\x7f",
		"\u00e9\u2211\U0001f600", "\u2028\u2029", "\xff", "a\xc3", "\xed\xa0\x80", "x\xf0\x9f\x98",
	}
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{byte(c)}), "ab"+string([]byte{byte(c)})+"cd")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s)[1:]; !bytes.Equal(got, want) {
			t.Errorf("string %q: wrote %s, json.Marshal %s", s, got, want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("bytes %q: wrote %s, json.Marshal %s", s, got, want)
		}
		if jsonPlain([]byte(s)) && string(want) != `"`+s+`"` {
			t.Errorf("jsonPlain(%q) = true, but Marshal writes %s", s, want)
		}
	}
}
