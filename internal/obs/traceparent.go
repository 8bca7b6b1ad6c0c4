package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceparentHeader is the canonical W3C trace-context header name. torusd
// accepts it on requests, echoes it on responses, and the typed/resilient
// clients propagate it downstream (same trace ID across retries and hedges,
// fresh span ID per attempt).
const TraceparentHeader = "traceparent"

// NewTraceID returns a random 16-byte trace ID as 32 lowercase hex digits,
// never all-zero (the W3C invalid value).
func NewTraceID() string {
	var b [16]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; a broken
			// entropy source is unrecoverable for the process anyway.
			panic("obs: crypto/rand failed: " + err.Error())
		}
		if b != [16]byte{} {
			return hex.EncodeToString(b[:])
		}
	}
}

// NewSpanID returns a random non-zero span ID for traceparent headers.
func NewSpanID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			panic("obs: crypto/rand failed: " + err.Error())
		}
		if v := binary.BigEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// FormatTraceparent renders a version-00 sampled traceparent value:
// "00-<trace-id>-<span-id>-01".
func FormatTraceparent(traceID string, spanID uint64) string {
	return fmt.Sprintf("00-%s-%016x-01", traceID, spanID)
}

// ParseTraceparent extracts the trace ID from a version-00 traceparent
// header value. It reports ok=false for malformed values, unknown versions,
// and the all-zero (invalid) trace ID.
func ParseTraceparent(h string) (traceID string, ok bool) {
	// "00-" 32 hex "-" 16 hex "-" 2 hex, read in place: a request without
	// the header (most of them) costs no allocation.
	h = strings.TrimSpace(h)
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' || h[:2] != "00" {
		return "", false
	}
	trace, span, flags := h[3:35], h[36:52], h[53:]
	if !isLowerHex(trace) || !isLowerHex(span) || !isLowerHex(flags) {
		return "", false
	}
	if allZeros(trace) || allZeros(span) {
		return "", false
	}
	return trace, true
}

func allZeros(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
