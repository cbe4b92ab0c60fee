package examon

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
)

// A zero-allocation JSON append encoder for the REST hot path: responses
// are rendered straight from the storage engine's chunks into a pooled
// byte slice with strconv.Append*, replacing the intermediate response
// structs + encoding/json round trip. Output is byte-identical to
// encoding/json (same float formatting, same HTML-escaped strings), which
// the REST tests pin against json.Marshal.

// jsonBufPool recycles response buffers across requests.
var jsonBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBufBytes caps what a response buffer may retain when returned
// to the pool: one huge raw query must not pin megabytes behind a pool
// entry for the rest of its lifetime.
const maxPooledBufBytes = 1 << 20

// putJSONBuf returns a buffer to the pool unless it grew past the
// retention cap (oversized buffers are left to the GC).
func putJSONBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBufBytes {
		return
	}
	*bp = b[:0]
	jsonBufPool.Put(bp)
}

// appendJSONFloat appends f exactly as encoding/json renders a float64:
// shortest representation, 'f' form inside [1e-6, 1e21), 'e' form outside
// with the exponent's leading zero trimmed. ok is false for NaN/Inf,
// which JSON cannot represent.
func appendJSONFloat(b []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9", like encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendJSONString appends s as a JSON string with encoding/json's
// default escaping. Telemetry tags are plain ASCII, so the fast path
// copies verbatim; anything needing escapes (quotes, control characters,
// HTML-significant bytes, non-ASCII) takes the exact-by-construction
// json.Marshal fallback.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil { // cannot happen for a string
				return append(append(b, '"'), '"')
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
