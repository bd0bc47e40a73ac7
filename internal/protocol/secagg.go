package protocol

import (
	"crypto/ecdh"

	"repro/internal/field"
	"repro/internal/wire"
)

// Secure Aggregation's messages (Sec. 6), the four rounds of secagg.Run, in
// its own phases. Lists are walked count first, and decoding checks a count
// against the bytes left before it makes the list.

// SecAggAdvertise is a device's Round-0 message: its X25519 public keys for
// share encryption (CPub) and pairwise masking (SPub).
type SecAggAdvertise struct {
	ID         int
	CPub, SPub []byte
	// CPK and SPK are CPub and SPub parsed, once, by the server; its roster
	// broadcast carries them to every client. They do not cross the wire.
	CPK, SPK *ecdh.PublicKey `wire:"-"`
}

// SecAggRoster is the server's broadcast of U1: every advert it took, ids
// ascending.
type SecAggRoster struct{ Adverts []SecAggAdvertise }

// RoutedShare is an encrypted Round-1 share bundle from Owner to Holder.
type RoutedShare struct {
	Owner, Holder int
	CT            []byte
}

// ShareCommitments is one owner's Round-1 commitment broadcast: for holder
// index i (evaluation point i+1 over the roster), the commitments to the
// personal-seed share (B[i]) and the masking-key share (SK[i]) dealt to it.
type ShareCommitments struct {
	Owner int
	B, SK [][field.CommitmentLen]byte
}

// SecAggShares is a device's Round-1 message: a sealed bundle for each
// other roster member, and its commitment broadcast.
type SecAggShares struct {
	Shares      []RoutedShare
	Commitments ShareCommitments
}

// SecAggRouted is the server's Round-1 relay to one holder: the bundles
// dealt to it, and every owner's commitment broadcast.
type SecAggRouted struct {
	Shares      []RoutedShare
	Commitments []ShareCommitments
}

// SecAggComplaint is a holder's report that an owner's bundle failed
// verification: the server excludes the owner from the mask set.
type SecAggComplaint struct {
	By, Against int
	Reason      string
}

// SecAggMaskSet is the server's broadcast of U1.5, which ends the share
// round: the devices whose shares arrived and that no holder blamed.
type SecAggMaskSet struct{ IDs []int }

// SecAggMasked is a device's Round-2 masked input.
type SecAggMasked struct {
	ID int
	Y  []uint64
}

// SecAggSurvivors is the server's broadcast of U2, which ends the masking
// round: the devices whose masked input is in the sum.
type SecAggSurvivors struct{ IDs []int }

// SecretShare is one holder's Shamir share of a 32-byte secret at point X,
// in 48-bit chunks.
type SecretShare struct {
	X  uint64
	Ys [6]uint64
}

// OwnerShare is one share revealed in Round 3, with the blinder that opens
// the owner's commitment to it.
type OwnerShare struct {
	Owner   int
	Share   SecretShare
	Blinder [field.BlinderLen]byte
}

// SecAggUnmask is a device's Round-3 message: shares of the survivors'
// personal seeds and of the dropped devices' masking keys.
type SecAggUnmask struct {
	From              int
	BShares, SKShares []OwnerShare
}

// walkSecAgg is walk for Secure Aggregation's messages.
func walkSecAgg(c *wire.Codec, msg interface{}) byte {
	switch m := msg.(type) {
	case SecAggAdvertise:
		return m.walk(c)
	case SecAggRoster:
		return m.walk(c)
	case SecAggShares:
		return m.walk(c)
	case SecAggRouted:
		return m.walk(c)
	case SecAggComplaint:
		return m.walk(c)
	case SecAggMaskSet:
		return m.walk(c)
	case SecAggMasked:
		return m.walk(c)
	case SecAggSurvivors:
		return m.walk(c)
	case SecAggUnmask:
		return m.walk(c)
	}
	return 0
}

// entries runs the count of a list of entries of at least minEntry bytes
// and returns the list to walk them into: decoding, one made for the count.
func entries[T any](c *wire.Codec, s []T, minEntry int) []T {
	n := len(s)
	c.Count(&n, minEntry)
	if c.Decoding() {
		s = nil
		if n > 0 {
			s = make([]T, n)
		}
	}
	return s
}

// fixed runs a byte array, with no length prefix.
func fixed(c *wire.Codec, b []byte) {
	if w := c.Raw(len(b)); c.Decoding() {
		copy(b, w)
	} else {
		copy(w, b)
	}
}

// ids runs an id list as code's message.
func ids(c *wire.Codec, p *[]int, code byte) byte {
	*p = entries(c, *p, 1)
	for i := range *p {
		c.Int(&(*p)[i])
	}
	return code
}

func (m *SecAggMaskSet) walk(c *wire.Codec) byte   { return ids(c, &m.IDs, CodeSecAggMaskSet) }
func (m *SecAggSurvivors) walk(c *wire.Codec) byte { return ids(c, &m.IDs, CodeSecAggSurvivors) }

func (m *SecAggAdvertise) walk(c *wire.Codec) byte {
	c.Int(&m.ID)
	c.Bytes(&m.CPub)
	c.Bytes(&m.SPub)
	return CodeSecAggAdvertise
}

func (m *SecAggRoster) walk(c *wire.Codec) byte {
	m.Adverts = entries(c, m.Adverts, 3)
	for i := range m.Adverts {
		m.Adverts[i].walk(c)
	}
	return CodeSecAggRoster
}

func walkShares(c *wire.Codec, p *[]RoutedShare) {
	*p = entries(c, *p, 3)
	for i := range *p {
		s := &(*p)[i]
		c.Int(&s.Owner)
		c.Int(&s.Holder)
		c.Bytes(&s.CT)
	}
}

func (m *ShareCommitments) walk(c *wire.Codec) {
	c.Int(&m.Owner)
	for _, list := range [...]*[][field.CommitmentLen]byte{&m.B, &m.SK} {
		*list = entries(c, *list, field.CommitmentLen)
		for i := range *list {
			fixed(c, (*list)[i][:])
		}
	}
}

func (m *SecAggShares) walk(c *wire.Codec) byte {
	walkShares(c, &m.Shares)
	m.Commitments.walk(c)
	return CodeSecAggShares
}

func (m *SecAggRouted) walk(c *wire.Codec) byte {
	walkShares(c, &m.Shares)
	m.Commitments = entries(c, m.Commitments, 3)
	for i := range m.Commitments {
		m.Commitments[i].walk(c)
	}
	return CodeSecAggRouted
}

func (m *SecAggComplaint) walk(c *wire.Codec) byte {
	c.Int(&m.By)
	c.Int(&m.Against)
	c.Str(&m.Reason)
	return CodeSecAggComplaint
}

func (m *SecAggMasked) walk(c *wire.Codec) byte {
	c.Int(&m.ID)
	m.Y = entries(c, m.Y, 8)
	for i := range m.Y {
		c.U64(&m.Y[i])
	}
	return CodeSecAggMasked
}

func (m *SecAggUnmask) walk(c *wire.Codec) byte {
	c.Int(&m.From)
	for _, list := range [...]*[]OwnerShare{&m.BShares, &m.SKShares} {
		*list = entries(c, *list, 1+8*7+field.BlinderLen)
		for i := range *list {
			s := &(*list)[i]
			c.Int(&s.Owner)
			c.U64(&s.Share.X)
			for j := range s.Share.Ys {
				c.U64(&s.Share.Ys[j])
			}
			fixed(c, s.Blinder[:])
		}
	}
	return CodeSecAggUnmask
}
