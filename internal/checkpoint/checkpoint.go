// Package checkpoint implements the FL checkpoint: the serialized model
// state shipped between server and devices ("essentially the serialized
// state of a TensorFlow session", Sec. 2.1). The global model goes down as
// a checkpoint; the device's weighted update comes back as one.
//
// Two wire encodings: full float64 and 8-bit quantized (Sec. 11, Bandwidth).
// A training plan's report encoding governs its device link both ways —
// updates up, the global model down (plan.DownlinkEncoding); eval downloads
// and the stored master checkpoint are always float64.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
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

// Encoding selects the wire format for parameters.
type Encoding uint8

// Available encodings.
const (
	EncodingFloat64 Encoding = iota + 1 // 8 bytes/param, lossless
	EncodingQuant8                      // 1 byte/param, min/max linear quantization
)

const (
	magic         = 0x464C4350 // "FLCP"
	formatVersion = 1
)

// Clone returns a deep copy.
func (c *Checkpoint) Clone() *Checkpoint {
	return &Checkpoint{TaskName: c.TaskName, Round: c.Round, Weight: c.Weight, Params: c.Params.Clone()}
}

// Marshal serializes the checkpoint with the given encoding.
//
// Layout (big-endian):
//
//	u32 magic | u8 version | u8 encoding | u16 nameLen | name bytes
//	i64 round | f64 weight | u32 paramLen | params…
//
// Quant8 params are prefixed by f64 min, f64 max.
func (c *Checkpoint) Marshal(enc Encoding) ([]byte, error) {
	if len(c.TaskName) > math.MaxUint16 {
		return nil, fmt.Errorf("checkpoint: task name too long (%d bytes)", len(c.TaskName))
	}
	if uint64(len(c.Params)) > math.MaxUint32 {
		return nil, fmt.Errorf("checkpoint: too many params (%d)", len(c.Params))
	}
	if enc != EncodingFloat64 && enc != EncodingQuant8 {
		return nil, fmt.Errorf("checkpoint: unknown encoding %d", enc)
	}
	buf := make([]byte, 0, c.WireSize(enc))

	buf = binary.BigEndian.AppendUint32(buf, magic)
	buf = append(buf, formatVersion, byte(enc))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(c.TaskName)))
	buf = append(buf, c.TaskName...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.Round))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.Weight))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Params)))

	switch enc {
	case EncodingFloat64:
		c.Params.PutBE(buf[len(buf):cap(buf)])
	case EncodingQuant8:
		// A NaN, an infinity or a range wider than MaxFloat64 has no levels.
		lo, hi := c.Params.Range()
		if d := hi - lo; math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("checkpoint: quant8 needs finite params and range, have [%v, %v]", lo, hi)
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(lo))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(hi))
		scale := 0.0
		if hi > lo {
			scale = 255 / (hi - lo)
		}
		c.Params.PutQuant8(buf[len(buf):cap(buf)], lo, scale)
	}
	return buf[:cap(buf)], nil
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
	// nameOff/nameLen locate the task name inside the buffer; paramsOff is
	// where the parameter section (including the Quant8 min/max prefix)
	// starts. Kept as offsets so ParseMeta allocates nothing.
	nameOff, nameLen, paramsOff int
}

// TaskName extracts the task name from the buffer the Meta was parsed from.
func (m Meta) TaskName(b []byte) string { return string(b[m.nameOff : m.nameOff+m.nameLen]) }

// ParseMeta validates and parses a checkpoint header. It performs every
// bounds check Unmarshal would — a buffer that passes ParseMeta cannot make
// DecodeParams or AccumulateParams read out of range — while allocating
// nothing, so the per-device Reporting path can inspect updates for free.
func ParseMeta(b []byte) (Meta, error) {
	var m Meta
	if len(b) < 12 {
		return m, fmt.Errorf("checkpoint: truncated header (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint32(b) != magic {
		return m, fmt.Errorf("checkpoint: bad magic %#x", binary.BigEndian.Uint32(b))
	}
	if b[4] != formatVersion {
		return m, fmt.Errorf("checkpoint: unsupported format version %d", b[4])
	}
	m.Encoding = Encoding(b[5])
	m.nameLen = int(binary.BigEndian.Uint16(b[6:]))
	m.nameOff = 8
	off := 8
	if len(b) < off+m.nameLen+20 {
		return m, fmt.Errorf("checkpoint: truncated body")
	}
	off += m.nameLen
	m.Round = int64(binary.BigEndian.Uint64(b[off:]))
	off += 8
	m.Weight = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
	off += 8
	// Validate the claimed parameter count against the remaining bytes
	// BEFORE anyone allocates O(n): updates arrive from devices, and a
	// hostile few-byte header claiming 2³²−1 params must not commit
	// gigabytes. Sizes are computed in int64 so the count cannot overflow
	// int on 32-bit platforms and slip past the check into make.
	count := int64(binary.BigEndian.Uint32(b[off:]))
	off += 4
	var need int64
	switch m.Encoding {
	case EncodingFloat64:
		need = 8 * count
	case EncodingQuant8:
		need = 16 + count
	default:
		return m, fmt.Errorf("checkpoint: unknown encoding %d", m.Encoding)
	}
	if int64(len(b)-off) < need {
		return m, fmt.Errorf("checkpoint: truncated params (have %d, need %d)", len(b)-off, need)
	}
	m.NumParams = int(count)
	m.paramsOff = off
	return m, nil
}

// DecodeParams decodes the parameter section of the buffer m was parsed
// from into dst[:m.NumParams], overwriting it. dst must hold at least
// NumParams elements; it is typically a pooled buffer, so steady-state
// rounds decode without allocating.
func (m Meta) DecodeParams(b []byte, dst tensor.Vector) error {
	if len(dst) < m.NumParams {
		return fmt.Errorf("checkpoint: decode buffer holds %d params, need %d", len(dst), m.NumParams)
	}
	m.apply(b, dst, false)
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
	m.apply(b, sum, true)
	return nil
}

// apply decodes params into dst, either overwriting (add=false) or
// accumulating (add=true). Bounds were established by ParseMeta.
func (m Meta) apply(b []byte, dst tensor.Vector, add bool) {
	dst = dst[:m.NumParams]
	switch m.Encoding {
	case EncodingFloat64:
		if add {
			dst.AddBE(b[m.paramsOff:])
		} else {
			dst.SetBE(b[m.paramsOff:])
		}
	case EncodingQuant8:
		var lut [256]float64
		levels := m.quant8(b, 1, &lut)
		if add {
			dst.AddLUT(&lut, levels)
		} else {
			dst.SetLUT(&lut, levels)
		}
	}
}

// quant8 fills lut[q] = scale·(lo + q·step), the value of level byte q in
// the Quant8 section of the buffer m was parsed from, and returns the
// NumParams level bytes. The table is the per-element dequantization
// expression evaluated once per level instead of once per parameter, so
// folding through it is bit-identical to computing in place (scale 1
// multiplies exactly). Callers keep lut on their stack.
func (m Meta) quant8(b []byte, scale float64, lut *[256]float64) []byte {
	var r [2]float64 // lo, hi
	tensor.Vector(r[:]).SetBE(b[m.paramsOff:])
	lo, step := r[0], 0.0
	if r[1] > lo {
		step = (r[1] - lo) / 255
	}
	for q := range lut {
		lut[q] = scale * (lo + float64(q)*step)
	}
	return b[m.paramsOff+16:][:m.NumParams]
}

// ParamNorm returns the L2 norm of the parameter section of the buffer m
// was parsed from, dequantizing on the fly for Quant8. Like
// AccumulateParams it materializes nothing, so the Reporting edge can
// decide whether an update needs norm clipping — and by how much — before
// touching an accumulator stripe.
func (m Meta) ParamNorm(b []byte) float64 {
	var ss float64
	switch m.Encoding {
	case EncodingFloat64:
		ss = tensor.SumSquaresBE(b[m.paramsOff:], m.NumParams)
	case EncodingQuant8:
		var lut [256]float64
		ss = tensor.SumSquaresLUT(&lut, m.quant8(b, 1, &lut))
	}
	return math.Sqrt(ss)
}

// AccumulateParamsScaled folds scale × params into sum:
// sum[i] += scale·params[i], with the same guarantees as AccumulateParams.
// Paired with ParamNorm it lets the Reporting edge clip an over-norm
// update into a stripe in two streaming passes over the wire bytes,
// allocating nothing.
func (m Meta) AccumulateParamsScaled(b []byte, sum tensor.Vector, scale float64) error {
	if len(sum) != m.NumParams {
		return fmt.Errorf("checkpoint: accumulate dim %d, update has %d", len(sum), m.NumParams)
	}
	switch m.Encoding {
	case EncodingFloat64:
		sum.AxpyBE(scale, b[m.paramsOff:])
	case EncodingQuant8:
		var lut [256]float64
		sum.AddLUT(&lut, m.quant8(b, scale, &lut))
	}
	return nil
}

// Unmarshal parses a checkpoint produced by Marshal.
func Unmarshal(b []byte) (*Checkpoint, error) {
	m, err := ParseMeta(b)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{TaskName: m.TaskName(b), Round: m.Round, Weight: m.Weight,
		Params: make(tensor.Vector, m.NumParams)}
	m.apply(b, c.Params, false)
	return c, nil
}

// WireSize returns the encoded size in bytes without allocating the buffer:
// Marshal's exact allocation, and the Fig. 9 traffic accounting's figure.
func (c *Checkpoint) WireSize(enc Encoding) int {
	header := 4 + 1 + 1 + 2 + len(c.TaskName) + 8 + 8 + 4
	switch enc {
	case EncodingQuant8:
		return header + 16 + len(c.Params)
	default:
		return header + 8*len(c.Params)
	}
}
