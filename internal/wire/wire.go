// Package wire holds the one codec behind every serialised form in the tree:
// protocol messages, actor envelopes, plan descriptors, task snapshots,
// checkpoints and sealed sums. A layout is written once, as a walk — a
// function that names each field in order on a *Codec (c.Str(&m.DeviceID),
// c.I64(&m.Round), …) — and the same walk sizes, encodes and decodes it.
//
// Layout conventions: fixed-order fields; ints and durations are zigzag
// varints, u8/u32/u64/f64 big-endian; strings, byte slices and lists are
// uvarint-length-prefixed; maps are uvarint-count-prefixed (key, value) pairs
// in key order. Decoding validates every count against the bytes remaining
// before any count-sized allocation, so a hostile length cannot commit memory
// proportional to its claim, and accepts canonical bytes only (shortest
// varints): what decodes re-encodes to the same bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"
)

type pass uint8

const (
	sizing     pass = iota
	encoding        // byte fields are copied into the one buffer
	segmenting      // byte fields are aliased as segments of their own
	decoding
)

// Codec runs walks. The zero Codec sizes: a walk over it counts the bytes an
// encoding needs, and Encode turns it into the encoding pass. Only the
// decoding pass writes the walked fields.
type Codec struct {
	pass          pass
	n, bulk, segs int // sizing: bytes outside and inside byte fields; byte fields
	buf           []byte
	cut           int // segmenting: where buf's pending segment starts
	parts         [][]byte
	in            []byte // decoding: the bytes not yet read
	err           error
}

// Decoder returns a Codec decoding b; decoded byte fields alias b.
func Decoder(b []byte) Codec { return Codec{pass: decoding, in: b} }

// Encoder returns a Codec encoding into a growing buffer, for a walk too
// costly to run twice.
func Encoder() Codec { return Codec{pass: encoding} }

// Encode ends a sizing pass: the next walk encodes into one buffer of the
// size measured — contiguous (Encoded), or with aliased set every byte field
// a segment of its own that aliases the walked value's bytes (Parts).
func (c *Codec) Encode(aliased bool) { c.EncodeAfter(nil, nil, aliased) }

// EncodeInto is Encode(false) into get(Size()), or a fresh buffer if nil.
func (c *Codec) EncodeInto(get func(n int) []byte) {
	var buf []byte
	if get != nil {
		buf = get(c.Size())[:0]
	}
	c.EncodeAfter(buf, nil, false)
}

// EncodeAfter is Encode appending to buf and, segmenting, to parts, each
// grown only when its capacity is short, so a caller that keeps them encodes
// without allocating. buf's own bytes lead the encoding and its first part.
func (c *Codec) EncodeAfter(buf []byte, parts [][]byte, aliased bool) {
	if aliased {
		*c = Codec{pass: segmenting, buf: slices.Grow(buf, c.n), parts: slices.Grow(parts, 2*c.segs+1)}
	} else {
		*c = Codec{pass: encoding, buf: slices.Grow(buf, c.Size())}
	}
}

// Size returns the length of the encoding a sizing pass has measured.
func (c *Codec) Size() int { return c.n + c.bulk }

// Encoded returns the bytes an encoding pass wrote.
func (c *Codec) Encoded() []byte { return c.buf }

// Parts returns a segmenting pass's segments; their concatenation is the
// encoding. The walked value's byte fields must not change until the parts
// have been written.
func (c *Codec) Parts() [][]byte {
	if c.cut < len(c.buf) {
		c.parts = append(c.parts, c.buf[c.cut:])
	}
	return c.parts
}

// Decoding reports whether this is a decoding pass, for a walk that checks
// or builds what it has read.
func (c *Codec) Decoding() bool { return c.pass == decoding }

// Fail latches err unless an error is latched already. After an error,
// decoding reads zero values, so a walk reads every field unconditionally
// and checks Finish once.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Finish returns the walk's first error; decoding, also an error when bytes
// remain unread.
func (c *Codec) Finish() error {
	if c.pass == decoding && len(c.in) != 0 {
		c.Fail(fmt.Errorf("wire: %d trailing bytes", len(c.in)))
	}
	return c.err
}

func (c *Codec) truncated(what string) {
	c.Fail(fmt.Errorf("wire: truncated %s (%d bytes left)", what, len(c.in)))
}

func (c *Codec) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.in) < n {
		c.truncated(what)
		return nil
	}
	out := c.in[:n]
	c.in = c.in[n:]
	return out
}

// fixed runs a w-byte big-endian field holding v; decoding, it returns the
// value read and true.
func (c *Codec) fixed(v uint64, w int, what string) (uint64, bool) {
	switch c.pass {
	case sizing:
		c.n += w
	case decoding:
		v = 0
		for _, b := range c.take(w, what) {
			v = v<<8 | uint64(b)
		}
		return v, true
	default:
		for s := 8 * (w - 1); s >= 0; s -= 8 {
			c.buf = append(c.buf, byte(v>>s))
		}
	}
	return 0, false
}

// uvarint runs an unsigned varint holding v, like fixed. Decoding refuses
// one longer than its shortest form, past 10 bytes or past 64 bits.
func (c *Codec) uvarint(v uint64, what string) (uint64, bool) {
	switch c.pass {
	case sizing:
		c.n += (bits.Len64(v|1) + 6) / 7
	case decoding:
		if v, n := binary.Uvarint(c.in); n <= 0 || n > 1 && c.in[n-1] == 0 {
			c.Fail(fmt.Errorf("wire: bad %s varint", what))
		} else if c.take(n, what) != nil {
			return v, true
		}
		return 0, true
	default:
		c.buf = binary.AppendUvarint(c.buf, v)
	}
	return 0, false
}

// zigzag runs a signed varint: x zigzag-mapped onto a uvarint, so small
// magnitudes of either sign take few bytes.
func (c *Codec) zigzag(x int64) (int64, bool) {
	v, ok := c.uvarint(uint64(x<<1)^uint64(x>>63), "int")
	return int64(v>>1) ^ -int64(v&1), ok
}

// num runs a fixed-width number and varint a signed varint. They must stay
// small enough to inline: a pointer into a walked message that reaches a
// generic call the compiler cannot see through moves every walked message
// to the heap (TestCodecAllocs in internal/protocol catches that).
func num[T ~uint8 | ~uint32 | ~uint64](c *Codec, p *T, w int, what string) {
	if v, ok := c.fixed(uint64(*p), w, what); ok {
		*p = T(v)
	}
}

func varint[T ~int64 | ~int](c *Codec, p *T) {
	if v, ok := c.zigzag(int64(*p)); ok {
		*p = T(v)
	}
}

func (c *Codec) U8(p *uint8)          { num(c, p, 1, "u8") }
func (c *Codec) U32(p *uint32)        { num(c, p, 4, "u32") }
func (c *Codec) U64(p *uint64)        { num(c, p, 8, "u64") }
func (c *Codec) I64(p *int64)         { varint(c, p) }
func (c *Codec) Int(p *int)           { varint(c, p) }
func (c *Codec) Dur(p *time.Duration) { varint(c, p) }

func (c *Codec) F64(p *float64) {
	if v, ok := c.fixed(math.Float64bits(*p), 8, "f64"); ok {
		*p = math.Float64frombits(v)
	}
}

// Bool is one byte, 0 or 1; decoding refuses any other.
func (c *Codec) Bool(p *bool) {
	var b uint64
	if *p {
		b = 1
	}
	if v, ok := c.fixed(b, 1, "bool"); ok {
		if v > 1 {
			c.Fail(fmt.Errorf("wire: bool byte %d", v))
		}
		*p = v == 1
	}
}

// count runs a uvarint count of n entries; decoding, it returns the count
// read, or 0 with an error latched when the bytes remaining cannot hold that
// many entries of minEntry bytes.
func (c *Codec) count(n int, minEntry int, what string) int {
	v, ok := c.uvarint(uint64(n), what)
	if !ok {
		return n
	}
	if c.err != nil || v > uint64(len(c.in)/minEntry) {
		c.truncated(what)
		return 0
	}
	return int(v)
}

// Count runs the length of a list whose entries the walk runs next, each at
// least minEntry bytes.
func (c *Codec) Count(p *int, minEntry int) {
	if n := c.count(*p, minEntry, "list"); c.pass == decoding {
		*p = n
	}
}

func (c *Codec) Str(p *string) {
	n := c.count(len(*p), 1, "string")
	switch c.pass {
	case sizing:
		c.n += n
	case decoding:
		*p = string(c.take(n, "string"))
	default:
		c.buf = append(c.buf, *p...)
	}
}

// Bytes runs a byte string: decoded, it aliases the input (empty is nil);
// segmenting, unless empty, it is a segment of its own.
func (c *Codec) Bytes(p *[]byte) {
	n := c.count(len(*p), 1, "bytes")
	switch {
	case c.pass == sizing:
		c.bulk += n
		c.segs += min(n, 1)
	case c.pass == decoding:
		if *p = nil; n > 0 {
			*p = c.take(n, "bytes")
		}
	case c.pass == encoding || n == 0:
		c.buf = append(c.buf, *p...)
	default:
		c.parts = append(c.parts, c.buf[c.cut:len(c.buf):len(c.buf)], *p)
		c.cut = len(c.buf)
	}
}

// Raw runs n bytes with no length prefix, a section the walk has sized (a
// count of fixed-width elements): decoding, it returns the next n input bytes,
// aliased; encoding, the window the caller fills after the walk; sizing, nil.
func (c *Codec) Raw(n int) []byte {
	switch c.pass {
	case sizing:
		c.n += n
	case decoding:
		return c.take(n, "section")
	default:
		c.buf = slices.Grow(c.buf, n)[:len(c.buf)+n]
		return c.buf[len(c.buf)-n:]
	}
	return nil
}

// Time runs a time.Time as the byte string of its own binary form, which
// keeps the zero time and the zone offset.
func (c *Codec) Time(p *time.Time) {
	var b []byte
	if c.pass != decoding {
		var err error
		if b, err = p.MarshalBinary(); err != nil {
			c.Fail(err)
		}
	}
	c.Bytes(&b)
	if c.pass == decoding && p.UnmarshalBinary(b) != nil {
		c.truncated("time")
	}
}

// Strs runs a string list (empty decodes as nil).
func (c *Codec) Strs(p *[]string) {
	n := c.count(len(*p), 1, "string list")
	if c.pass == decoding && n > 0 {
		*p = make([]string, n)
	}
	for i := range n {
		c.Str(&(*p)[i])
	}
}

// F64s runs a float64 list (empty decodes as non-nil).
func (c *Codec) F64s(p *[]float64) {
	n := c.count(len(*p), 8, "float list")
	if c.pass == decoding {
		*p = make([]float64, n)
	}
	for i := range n {
		c.F64(&(*p)[i])
	}
}

// The maps have string keys; an entry is at least its key's length byte and
// its value: 8 bytes for a float, 1 for a varint or a list's count.

func (c *Codec) F64Map(p *map[string]float64) {
	var buf [8]string
	c.entries(keysOf(*p, buf[:0]), 9, func(k string) int {
		v := (*p)[k]
		c.F64(&v)
		return put(c, p, k, v)
	})
}

func (c *Codec) I64Map(p *map[string]int64) {
	var buf [8]string
	c.entries(keysOf(*p, buf[:0]), 2, func(k string) int {
		v := (*p)[k]
		c.I64(&v)
		return put(c, p, k, v)
	})
}

func (c *Codec) F64sMap(p *map[string][]float64) {
	var buf [8]string
	c.entries(keysOf(*p, buf[:0]), 2, func(k string) int {
		v := (*p)[k]
		c.F64s(&v)
		return put(c, p, k, v)
	})
}

// put stores a decoded entry and returns the map's size. Like keysOf it
// must stay small enough to inline (see num).
func put[V any](c *Codec, p *map[string]V, k string, v V) int {
	if c.pass == decoding {
		if *p == nil {
			*p = map[string]V{}
		}
		(*p)[k] = v
	}
	return len(*p)
}

// keysOf appends m's keys to buf: a map of up to 8 entries lists them in its
// caller's stack buffer.
func keysOf[V any](m map[string]V, buf []string) []string {
	for k := range m {
		buf = append(buf, k)
	}
	return buf
}

// entries runs a map's entry count, then each entry in key order: its key,
// then value(key), which runs the value — decoding, stores it — and returns
// the map's size, so a repeated key is refused and a map has one encoding.
func (c *Codec) entries(keys []string, minEntry int, value func(k string) int) {
	n := c.count(len(keys), minEntry, "map")
	slices.Sort(keys)
	for i := range n {
		var k string
		if i < len(keys) {
			k = keys[i]
		}
		c.Str(&k)
		if value(k) <= i {
			c.Fail(fmt.Errorf("wire: repeated map key %q", k))
		}
	}
}
