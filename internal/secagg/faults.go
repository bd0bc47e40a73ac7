package secagg

import (
	"errors"
	"slices"

	"repro/internal/field"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// A Fault is what a device's link in Run does at its first send or receipt
// of a message with one code: it closes, so the device drops out at that
// round, or, corrupt, it damages the message sent. The six below are all
// there are.
type Fault struct {
	code    byte
	corrupt bool
}

// The faults of the protocol's four rounds.
var (
	DropAdvertise = Fault{code: protocol.CodeSecAggAdvertise}             // gone before Round 0
	DropShares    = Fault{code: protocol.CodeSecAggShares}                // advertised, never dealt
	DropMasked    = Fault{code: protocol.CodeSecAggMaskSet}               // dealt, gone before it masks
	DropUnmask    = Fault{code: protocol.CodeSecAggUnmask}                // masked, never unmasked
	Poison        = Fault{code: protocol.CodeSecAggShares, corrupt: true} // dealt shares that open no commitment
	Forge         = Fault{code: protocol.CodeSecAggUnmask, corrupt: true} // revealed forged shares
)

// Faults maps device ids to the fault on their links: drawn churn
// (sim.SecAggChurn) or a test's.
type Faults map[int]Fault

// Link is a Run link: device id's end under its fault, if any.
func (fs Faults) Link(id int, c transport.Conn) transport.Conn {
	if f, ok := fs[id]; ok {
		return &faultConn{Conn: c, Fault: f}
	}
	return c
}

type faultConn struct {
	transport.Conn
	Fault
	fired bool
}

func (c *faultConn) Recv() (interface{}, error) {
	msg, err := c.Conn.Recv()
	if err == nil && c.fires(msg) {
		return nil, c.reset()
	}
	return msg, err
}

func (c *faultConn) Send(msg interface{}) error {
	if !c.fires(msg) {
		return c.Conn.Send(msg)
	}
	if !c.corrupt {
		return c.reset()
	}
	return c.Conn.Send(damage(msg))
}

// fires reports whether msg is the first message of the fault's code; no
// fault fires on what has no code (Run's phase marks).
func (c *faultConn) fires(msg interface{}) bool {
	if c.fired || c.code == 0 || protocol.CodeOf(msg) != c.code {
		return false
	}
	c.fired = true
	return true
}

func (c *faultConn) reset() error {
	_ = c.Conn.Close()
	return errors.New("secagg: link reset")
}

// damage returns a copy of a deal whose every commitment is off by one bit,
// so no share opens it (a poisoned deal), or of an unmask response whose
// every revealed share is off by one (a forged response); any other message
// as it is.
func damage(msg interface{}) interface{} {
	switch m := msg.(type) {
	case protocol.SecAggShares:
		sc := &m.Commitments
		sc.B, sc.SK = slices.Clone(sc.B), slices.Clone(sc.SK)
		for _, list := range [...][][field.CommitmentLen]byte{sc.B, sc.SK} {
			for i := range list {
				list[i][0] ^= 1
			}
		}
		return m
	case protocol.SecAggUnmask:
		m.BShares, m.SKShares = slices.Clone(m.BShares), slices.Clone(m.SKShares)
		for _, list := range [...][]protocol.OwnerShare{m.BShares, m.SKShares} {
			for i := range list {
				list[i].Share.Ys[0]++
			}
		}
		return m
	}
	return msg
}
