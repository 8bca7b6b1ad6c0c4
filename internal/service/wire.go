package service

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The placement endpoints write a cached answer straight from its record
// (records.go) into the response buffer. These helpers write JSON values
// as encoding/json's Marshal and Encoder write them — floats in the same
// format, strings with the same escaping, HTML characters included — so a
// record's body is byte for byte the encoding of the answer it stands for.

// appendJSONFloat appends the finite f as encoding/json writes a float64:
// the shortest round-trip decimal, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent written without its leading
// zero (e-9, not e-09). JSON has no form for NaN or ±Inf; no record writes
// one (see finite).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// finite reports whether every v can be written as a JSON number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json writes a string with HTML
// escaping on (its default): quoted; '"' and '\\' backslash-escaped;
// \b, \f, \n, \r and \t by name and every other control byte, '<', '>'
// and '&' as \u00XX; invalid UTF-8 as \ufffd; U+2028 and U+2029 as
// \u2028 and \u2029.
func appendJSONString[S []byte | string](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonPlain reports whether appendJSONString writes text unchanged
// between its quotes.
func jsonPlain(text []byte) bool {
	for _, c := range text {
		if c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
