// Package wire holds the one set of encode helpers and the one
// bounds-checked Reader behind every serialised form in the tree: protocol
// messages, actor envelopes, plan descriptors and task snapshots. Layout
// conventions: fixed-order big-endian fields; strings, byte slices and lists
// are u32-length-prefixed; durations are i64 nanoseconds; maps are
// u32-count-prefixed (name, value) pairs. The Reader validates every count
// against the bytes actually remaining before any count-sized allocation, so
// a hostile length cannot commit memory proportional to its claim.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// --- encoding helpers ---

func SizeStr(s string) int   { return 4 + len(s) }
func SizeBytes(b []byte) int { return 4 + len(b) }

func SizeMetrics(m map[string]float64) int {
	n := 4
	for k := range m {
		n += SizeStr(k) + 8
	}
	return n
}

func SizeNamedI64s(m map[string]int64) int {
	n := 4
	for k := range m {
		n += SizeStr(k) + 8
	}
	return n
}

func SizeStrs(ss []string) int {
	n := 4
	for _, s := range ss {
		n += SizeStr(s)
	}
	return n
}

func SizeMetricSamples(m map[string][]float64) int {
	n := 4
	for k, vs := range m {
		n += SizeStr(k) + 4 + 8*len(vs)
	}
	return n
}

func AppendU32(buf []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(buf, v) }
func AppendI64(buf []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(buf, uint64(v)) }
func AppendF64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func AppendStr(buf []byte, s string) []byte {
	buf = AppendU32(buf, uint32(len(s)))
	return append(buf, s...)
}

func AppendBytes(buf, b []byte) []byte {
	buf = AppendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func AppendMetrics(buf []byte, m map[string]float64) []byte {
	buf = AppendU32(buf, uint32(len(m)))
	for k, v := range m {
		buf = AppendStr(buf, k)
		buf = AppendF64(buf, v)
	}
	return buf
}

func AppendNamedI64s(buf []byte, m map[string]int64) []byte {
	buf = AppendU32(buf, uint32(len(m)))
	for k, v := range m {
		buf = AppendStr(buf, k)
		buf = AppendI64(buf, v)
	}
	return buf
}

func AppendStrs(buf []byte, ss []string) []byte {
	buf = AppendU32(buf, uint32(len(ss)))
	for _, s := range ss {
		buf = AppendStr(buf, s)
	}
	return buf
}

func AppendMetricSamples(buf []byte, m map[string][]float64) []byte {
	buf = AppendU32(buf, uint32(len(m)))
	for k, vs := range m {
		buf = AppendStr(buf, k)
		buf = AppendU32(buf, uint32(len(vs)))
		for _, v := range vs {
			buf = AppendF64(buf, v)
		}
	}
	return buf
}

// --- decoding ---

// Reader consumes a payload front to back, latching the first error. After
// an error every accessor returns a zero value, so a decoder reads all its
// fields unconditionally and checks Finish once.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b, which decoded byte-slice fields will alias.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Finish returns the first decode error, or an error when bytes remain
// unread.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return r.err
}

// Fail latches a decode error naming the field that could not be read.
func (r *Reader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated %s (%d bytes left)", what, len(r.b))
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b) < n {
		r.Fail(what)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *Reader) U8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *Reader) I64() int64 {
	b := r.take(8, "int64")
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func (r *Reader) F64() float64 { return math.Float64frombits(uint64(r.I64())) }

// Bool accepts only the two bytes AppendBool writes, keeping every encoding
// canonical: what decodes re-encodes to the same bytes.
func (r *Reader) Bool() bool {
	v := r.U8("bool")
	if v > 1 {
		r.Fail("bool")
	}
	return v == 1
}

func (r *Reader) Str() string {
	n := int(r.U32("string length"))
	return string(r.take(n, "string"))
}

// Bytes returns the field aliased into the payload; nil-length fields decode
// as nil so round-trips preserve emptiness.
func (r *Reader) Bytes() []byte {
	n := int(r.U32("bytes length"))
	if n == 0 {
		return nil
	}
	return r.take(n, "bytes")
}

// Count reads a u32 entry count and rejects one the remaining bytes cannot
// hold at minEntry bytes per entry, before the caller allocates for it.
func (r *Reader) Count(what string, minEntry int) int {
	n := int(r.U32(what + " count"))
	if r.err != nil {
		return 0
	}
	if n > len(r.b)/minEntry {
		r.Fail(what + " entries")
		return 0
	}
	return n
}

// Strs decodes a string list; each entry is ≥ 4 bytes (its length prefix).
func (r *Reader) Strs(what string) []string {
	n := r.Count(what, 4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Str()
	}
	if r.err != nil {
		return nil
	}
	return ss
}

// Metrics decodes a name→float64 map; each entry is ≥ 12 bytes.
func (r *Reader) Metrics() map[string]float64 {
	n := r.Count("metrics", 12)
	if n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		m[k] = r.F64()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// NamedI64s decodes a name→int64 map (telemetry counters, seal phase
// durations); each entry is ≥ 12 bytes.
func (r *Reader) NamedI64s(what string) map[string]int64 {
	n := r.Count(what, 12)
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		m[k] = r.I64()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// MetricSamples decodes a map of per-metric value slices; each entry is ≥ 8
// bytes (name length prefix + value count) and each value 8.
func (r *Reader) MetricSamples() map[string][]float64 {
	n := r.Count("metric sample", 8)
	if n == 0 {
		return nil
	}
	m := make(map[string][]float64, n)
	for i := 0; i < n; i++ {
		k := r.Str()
		vs := make([]float64, r.Count("metric value", 8))
		for j := range vs {
			vs[j] = r.F64()
		}
		if r.err != nil {
			return nil
		}
		m[k] = vs
	}
	return m
}
