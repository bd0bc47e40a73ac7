// Package checkpoint implements the FL checkpoint: the serialized model
// state shipped between server and devices ("essentially the serialized
// state of a TensorFlow session", Sec. 2.1). The global model goes down as
// a checkpoint; the device's weighted update comes back as one.
//
// A checkpoint is one walk over a wire.Codec — magic, version, encoding,
// task name, round, weight, parameter count — and then the parameters in a
// row of the encoding table: full float64, or 8-bit quantized (Sec. 11,
// Bandwidth). DESIGN.md §2 tabulates both. A training plan's report
// encoding governs its device link both ways — updates up, the global model
// down (plan.DownlinkEncoding); eval downloads and the stored master
// checkpoint are always float64.
package checkpoint

import (
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// Checkpoint carries model parameters plus protocol metadata.
type Checkpoint struct {
	TaskName string
	Round    int64
	// Weight is the aggregation weight n (the local example count for a
	// device update; the summed weight n̄ for an aggregate).
	Weight float64
	Params tensor.Vector
}

// Encoding selects the wire format for parameters: a row of the table.
type Encoding uint8

// Available encodings.
const (
	EncodingFloat64 Encoding = iota + 1 // 8 bytes/param, lossless
	EncodingQuant8                      // 1 byte/param, min/max linear quantization
)

const (
	magic         = 0x464C4350 // "FLCP"
	formatVersion = 2          // format 1, fixed-width, is refused (testdata/checkpoint_v1.golden)
)

// A row is one encoding, indexed by its byte: the bytes per element, whether
// the elements' range [lo, hi] precedes them as two f64 (a ranged row's
// elements are levels spanning it), and the kernels between element bytes
// and a Vector. The kernels take the Meta by value: a pointer passed through
// the table would move every Meta to the heap.
type row struct {
	name     string
	width    int
	ranged   bool
	put      func(m Meta, dst []byte, v tensor.Vector)
	set, add func(m Meta, dst tensor.Vector, src []byte)
	axpy     func(m Meta, dst tensor.Vector, a float64, src []byte)
	sumSq    func(m Meta, src []byte) float64
}

var rows = [256]row{
	EncodingFloat64: {name: "float64", width: 8,
		put:   func(_ Meta, dst []byte, v tensor.Vector) { v.PutBE(dst) },
		set:   func(_ Meta, dst tensor.Vector, src []byte) { dst.SetBE(src) },
		add:   func(_ Meta, dst tensor.Vector, src []byte) { dst.AddBE(src) },
		axpy:  func(_ Meta, dst tensor.Vector, a float64, src []byte) { dst.AxpyBE(a, src) },
		sumSq: func(m Meta, src []byte) float64 { return tensor.SumSquaresBE(src, m.NumParams) },
	},
	// Quant8 decodes through a table of its 256 levels on the kernel's stack.
	EncodingQuant8: {name: "quant8", width: 1, ranged: true,
		put: func(m Meta, dst []byte, v tensor.Vector) { v.PutQuant8(dst, m.lo, m.hi) },
		set: func(m Meta, dst tensor.Vector, src []byte) { var lut [256]float64; dst.SetLUT(m.levels(1, &lut), src) },
		add: func(m Meta, dst tensor.Vector, src []byte) { var lut [256]float64; dst.AddLUT(m.levels(1, &lut), src) },
		axpy: func(m Meta, dst tensor.Vector, a float64, src []byte) {
			var lut [256]float64
			dst.AddLUT(m.levels(a, &lut), src)
		},
		sumSq: func(m Meta, src []byte) float64 {
			var lut [256]float64
			return tensor.SumSquaresLUT(m.levels(1, &lut), src)
		},
	},
}

// Valid reports whether e names a row of the encoding table.
func (e Encoding) Valid() bool { return rows[e].width > 0 }

// Clone returns a deep copy.
func (c *Checkpoint) Clone() *Checkpoint {
	return &Checkpoint{TaskName: c.TaskName, Round: c.Round, Weight: c.Weight, Params: c.Params.Clone()}
}

// Marshal serializes the checkpoint with the given encoding into one
// exact-size buffer.
func (c *Checkpoint) Marshal(enc Encoding) ([]byte, error) { return c.MarshalInto(enc, nil) }

// MarshalInto is Marshal into get(n), n bytes the caller owns (a loan).
func (c *Checkpoint) MarshalInto(enc Encoding, get func(n int) []byte) ([]byte, error) {
	if !enc.Valid() {
		return nil, fmt.Errorf("checkpoint: unknown encoding %d", enc)
	}
	m := Meta{Round: c.Round, Weight: c.Weight, NumParams: len(c.Params), Encoding: enc}
	r := &rows[enc]
	if r.ranged {
		// A NaN, an infinity or a range wider than MaxFloat64 has no levels.
		if m.lo, m.hi = c.Params.Range(); math.IsNaN(m.hi-m.lo) || math.IsInf(m.hi-m.lo, 0) {
			return nil, fmt.Errorf("checkpoint: %s needs finite params and range, have [%v, %v]", r.name, m.lo, m.hi)
		}
	}
	var w wire.Codec
	m.walk(&w, len(c.TaskName))
	w.EncodeInto(get)
	name, elems := m.walk(&w, len(c.TaskName))
	copy(name, c.TaskName)
	r.put(m, elems, c.Params)
	return w.Encoded(), nil
}

// Meta is a checkpoint's header, parsed without materializing the O(dim)
// parameter vector. The Reporting hot path uses it to validate an incoming
// update (dimension, weight) before deciding where — and whether — to
// decode the parameters (DecodeParams into a pooled buffer, or
// AccumulateParams straight into an accumulator stripe).
type Meta struct {
	Round     int64
	Weight    float64
	NumParams int
	Encoding  Encoding
	// lo and hi are a ranged row's range.
	lo, hi float64
}

// walk runs a checkpoint holding m and a task name of nameLen bytes: the
// header, then the element section, which ends the checkpoint. It returns
// the name and the elements: decoding, aliases of the input; encoding, the
// windows of the buffer that Marshal fills.
func (m *Meta) walk(c *wire.Codec, nameLen int) (name, elems []byte) {
	mg, version := uint32(magic), uint8(formatVersion)
	c.U32(&mg)
	c.U8(&version)
	c.U8((*uint8)(&m.Encoding))
	if mg != magic || version != formatVersion || !m.Encoding.Valid() {
		c.Fail(fmt.Errorf("not a format-%d checkpoint: magic %#x, version %d, encoding %d",
			formatVersion, mg, version, m.Encoding))
	}
	c.Count(&nameLen, 1)
	name = c.Raw(nameLen)
	c.I64(&m.Round)
	c.F64(&m.Weight)
	// Decoding, the count is checked against the bytes left before anyone
	// allocates O(count): a hostile few-byte header must not commit
	// gigabytes. (An unknown encoding failed above, so its zero width is
	// never divided by.)
	r := &rows[m.Encoding]
	c.Count(&m.NumParams, r.width)
	if r.ranged {
		c.F64(&m.lo)
		c.F64(&m.hi)
	}
	return name, c.Raw(r.width * m.NumParams)
}

// parse decodes a whole checkpoint, refusing truncation and trailing bytes.
func parse(b []byte) (m Meta, name, elems []byte, err error) {
	d := wire.Decoder(b)
	name, elems = m.walk(&d, 0)
	if err = d.Finish(); err != nil {
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	return m, name, elems, nil
}

// ParseMeta validates and parses a checkpoint header. It performs every
// check Unmarshal would — a buffer that passes ParseMeta cannot make
// DecodeParams or AccumulateParams read out of range — while allocating
// nothing, so the per-device Reporting path can inspect updates for free.
func ParseMeta(b []byte) (Meta, error) {
	m, _, _, err := parse(b)
	return m, err
}

// TaskName extracts the task name from the buffer the Meta was parsed from.
func (m Meta) TaskName(b []byte) string {
	_, name, _, _ := parse(b)
	return string(name)
}

// elems returns the element section of b, the buffer m was parsed from: its
// tail, since ParseMeta refuses bytes after it.
func (m Meta) elems(b []byte) []byte { return b[len(b)-rows[m.Encoding].width*m.NumParams:] }

// levels fills lut[q] = scale·(lo + q·step), the value of level byte q, and
// returns it. The table is the per-element dequantization expression
// evaluated once per level instead of once per parameter, so folding through
// it is bit-identical to computing in place (scale 1 multiplies exactly).
// Callers keep lut on their stack: returned by value, it measured slower.
func (m Meta) levels(scale float64, lut *[256]float64) *[256]float64 {
	step := 0.0
	if m.hi > m.lo {
		step = (m.hi - m.lo) / 255
	}
	for q := range lut {
		lut[q] = scale * (m.lo + float64(q)*step)
	}
	return lut
}

// DecodeParams decodes the parameter section of the buffer m was parsed
// from into dst[:m.NumParams], overwriting it. dst must hold at least
// NumParams elements; it is typically a pooled buffer, so steady-state
// rounds decode without allocating.
func (m Meta) DecodeParams(b []byte, dst tensor.Vector) error {
	if len(dst) < m.NumParams {
		return fmt.Errorf("checkpoint: decode buffer holds %d params, need %d", len(dst), m.NumParams)
	}
	rows[m.Encoding].set(m, dst[:m.NumParams], m.elems(b))
	return nil
}

// AccumulateParams folds the parameter section of the buffer m was parsed
// from into sum: sum[i] += params[i], dequantizing on the fly for Quant8 —
// no intermediate O(dim) vector is ever materialized. sum must hold exactly
// NumParams elements. The fold either applies fully or (on the length
// mismatch error) leaves sum untouched, so a guarded accumulator stripe
// never sees a half-applied update.
//
// Quant8 error bound: dequantization reconstructs lo + byte·step with
// step = (hi−lo)/255, so each folded coordinate differs from the device's
// true value by at most step/2 = (hi−lo)/510 (Marshal rounds to the
// nearest level). Anything consuming decoded Quant8 updates — including
// per-update robust reduces, which sort or compare these reconstructed
// values — inherits that per-coordinate ±step/2 bound; plan.Validate
// therefore requires per-update robust policies over Quant8 uplinks to
// declare themselves QuantSafe.
func (m Meta) AccumulateParams(b []byte, sum tensor.Vector) error {
	if len(sum) != m.NumParams {
		return fmt.Errorf("checkpoint: accumulate dim %d, update has %d", len(sum), m.NumParams)
	}
	rows[m.Encoding].add(m, sum, m.elems(b))
	return nil
}

// ParamNorm returns the L2 norm of the parameter section of the buffer m
// was parsed from, dequantizing on the fly for Quant8. Like
// AccumulateParams it materializes nothing, so the Reporting edge can
// decide whether an update needs norm clipping — and by how much — before
// touching an accumulator stripe.
func (m Meta) ParamNorm(b []byte) float64 {
	return math.Sqrt(rows[m.Encoding].sumSq(m, m.elems(b)))
}

// AccumulateParamsScaled folds scale × params into sum:
// sum[i] += scale·params[i], with the same guarantees as AccumulateParams.
// Paired with ParamNorm it lets the Reporting edge clip an over-norm
// update into a stripe in two streaming passes over the wire bytes,
// allocating nothing. (Quant8 scales its level table, not the elements.)
func (m Meta) AccumulateParamsScaled(b []byte, sum tensor.Vector, scale float64) error {
	if len(sum) != m.NumParams {
		return fmt.Errorf("checkpoint: accumulate dim %d, update has %d", len(sum), m.NumParams)
	}
	rows[m.Encoding].axpy(m, sum, scale, m.elems(b))
	return nil
}

// Unmarshal parses a checkpoint produced by Marshal.
func Unmarshal(b []byte) (*Checkpoint, error) {
	m, name, elems, err := parse(b)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{TaskName: string(name), Round: m.Round, Weight: m.Weight,
		Params: make(tensor.Vector, m.NumParams)}
	rows[m.Encoding].set(m, c.Params, elems)
	return c, nil
}
