package wire

import (
	"bytes"
	"math"
	"testing"
)

// intStr is a two-field layout: a zigzag varint, then a string behind its
// uvarint length.
type intStr struct {
	I int64
	S string
}

func (m *intStr) walk(c *Codec) {
	c.I64(&m.I)
	c.Str(&m.S)
}

func encodeIntStr(m intStr) []byte {
	var c Codec
	m.walk(&c)
	c.Encode(false)
	m.walk(&c)
	return c.Encoded()
}

func decodeIntStr(b []byte) (intStr, error) {
	var m intStr
	c := Decoder(b)
	m.walk(&c)
	return m, c.Finish()
}

// TestVarintWidths: a varint takes one byte per 7 bits of its zigzag
// value, so the ints the protocol carries (rounds, counts, sizes) take one
// or two bytes, and the extremes take ten.
func TestVarintWidths(t *testing.T) {
	for _, tc := range []struct {
		v     int64
		bytes int
	}{{0, 1}, {-1, 1}, {63, 1}, {-64, 1}, {64, 2}, {-65, 2}, {8191, 2}, {8192, 3},
		{math.MaxInt64, 10}, {math.MinInt64, 10}} {
		b := encodeIntStr(intStr{I: tc.v})
		if len(b) != tc.bytes+1 {
			t.Errorf("%d encodes as %x, want %d bytes", tc.v, b[:len(b)-1], tc.bytes)
		}
		if m, err := decodeIntStr(b); err != nil || m.I != tc.v {
			t.Errorf("%d decodes as %d, %v", tc.v, m.I, err)
		}
	}
}

// nonCanonical are byte strings a varint decoder must refuse, each followed
// by a zero-length string so that only the varint is at fault.
var nonCanonical = map[string][]byte{
	"zero in two bytes":      {0x80, 0x00, 0},
	"one in three bytes":     {0x82, 0x80, 0x00, 0},
	"eleven bytes":           {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0},
	"tenth byte past 64 bit": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0},
	"cut off":                {0x80},
	"length past the buffer": {0, 0x05, 'a', 'b'},
	"length of 2^64 - 1":     {0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	"overlong string length": {0, 0x81, 0x00, 'a'},
}

func TestVarintRefusesNonCanonical(t *testing.T) {
	for name, b := range nonCanonical {
		if m, err := decodeIntStr(b); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, b, m)
		}
	}
}

// FuzzVarint: whatever decodes re-encodes to the same bytes — a varint has
// one encoding, its shortest.
func FuzzVarint(f *testing.F) {
	for _, m := range []intStr{{}, {I: -1, S: "x"}, {I: math.MinInt64}, {I: math.MaxInt64, S: string(make([]byte, 200))}} {
		f.Add(encodeIntStr(m))
	}
	for _, b := range nonCanonical {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeIntStr(b)
		if err != nil {
			return
		}
		if again := encodeIntStr(m); !bytes.Equal(again, b) {
			t.Fatalf("%x decodes to %+v, which encodes as %x", b, m, again)
		}
	})
}
