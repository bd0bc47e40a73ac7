package secagg

import (
	"cmp"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"slices"

	"repro/internal/field"
	"repro/internal/protocol"
)

// Client is one device's protocol state machine: advertise → share (dealt,
// received) → mask → unmask → done. IDs are 1-based and must be unique
// within the instance.
type Client struct {
	id  int
	cfg Config

	phase phase

	cKey *ecdh.PrivateKey    // share-encryption keypair
	sKey *ecdh.PrivateKey    // masking keypair
	seed [secretByteLen]byte // personal mask seed b_u

	// roster is the server's broadcast of U1 as given, ids ascending; pos
	// is this client's place in it, so its shares sit at evaluation point
	// pos+1. peers holds by the same positions all the client keeps per
	// participant, itself included.
	roster roster
	pos    int
	peers  []peer

	bundles *sealScratch // what ShareKeys sealed into, until release
}

// peer is what a client keeps for one roster position.
type peer struct {
	// gcm is the pair's share-encryption AEAD: the ECDH secret behind it is
	// symmetric, so the instance built to seal the outgoing bundle in
	// Round 1 opens the incoming bundle from the same peer — deriving it
	// twice would double the client's dominant X25519 cost and build
	// AES-GCM twice per pair.
	gcm cipher.AEAD
	// shares is the peer's bundle for this client, verified when held; a
	// client's own stays on the device, as CCS'17 Round 1 has it.
	shares shareBundle
	held   bool
	// masked: the peer is in the server's broadcast of the devices still in
	// the protocol after the share round (shares delivered, not blamed).
	// Pairwise masks cover exactly this set, so a device that vanished or
	// was excluded before masking leaves no residual mask to reconstruct.
	masked bool
}

// NewClient creates a device participant with fresh keys.
func NewClient(id int, cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < 1 {
		return nil, fmt.Errorf("secagg: client id must be ≥ 1, got %d", id)
	}
	curve := ecdh.X25519()
	cKey, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secagg: keygen: %w", err)
	}
	sKey, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secagg: keygen: %w", err)
	}
	clientKeygen.Add(2)
	c := &Client{id: id, cfg: cfg, cKey: cKey, sKey: sKey}
	if _, err := io.ReadFull(rand.Reader, c.seed[:]); err != nil {
		return nil, fmt.Errorf("secagg: seed: %w", err)
	}
	return c, nil
}

// Advertise returns the Round-0 key advertisement.
func (c *Client) Advertise() protocol.SecAggAdvertise {
	cPK, sPK := c.cKey.PublicKey(), c.sKey.PublicKey()
	return protocol.SecAggAdvertise{ID: c.id, CPub: cPK.Bytes(), SPub: sPK.Bytes(), CPK: cPK, SPK: sPK}
}

// ReceiveRoster installs the server's broadcast of Round-0 adverts (the set
// U1), which it keeps and the caller must not modify. The roster must list
// ids in ascending order, each with its keys parsed, and contain this
// client and at least T participants.
func (c *Client) ReceiveRoster(roster []protocol.SecAggAdvertise) error {
	if err := c.phase.expect(advertising, "ReceiveRoster"); err != nil {
		return err
	}
	if len(roster) < c.cfg.T {
		return fmt.Errorf("secagg: roster of %d below threshold %d", len(roster), c.cfg.T)
	}
	for i, a := range roster {
		if i > 0 && a.ID <= roster[i-1].ID {
			return fmt.Errorf("secagg: duplicate or unsorted id %d in roster", a.ID)
		}
		if a.CPK == nil || a.SPK == nil {
			return fmt.Errorf("secagg: roster entry %d carries no parsed keys", a.ID)
		}
	}
	c.roster = roster
	pos, ok := c.roster.find(c.id)
	if !ok {
		return fmt.Errorf("secagg: roster does not include self (%d)", c.id)
	}
	c.pos, c.peers = pos, make([]peer, len(roster))
	c.phase = sharing
	return nil
}

// roster is a broadcast of U1, ids ascending.
type roster []protocol.SecAggAdvertise

// find returns id's position.
func (r roster) find(id int) (int, bool) {
	return slices.BinarySearchFunc(r, id, func(a protocol.SecAggAdvertise, id int) int { return cmp.Compare(a.ID, id) })
}

// ShareKeys produces the Round-1 encrypted share bundles, one per other
// roster member, and the matching commitment broadcast, which covers this
// client's own shares too; those stay on the device. It deals once.
func (c *Client) ShareKeys() ([]protocol.RoutedShare, protocol.ShareCommitments, error) {
	var none protocol.ShareCommitments
	if err := c.phase.expect(sharing, "ShareKeys"); err != nil {
		return nil, none, err
	}
	n, t := len(c.roster), c.cfg.T
	// Per-instance tables by holder position: both secrets' shares, their
	// blinders (drawn in one read) and commitments; the sealed bundles go
	// into pooled scratch, which release gives back.
	deal, ys, coef := make([]chunkedShare, 2*n), make([]uint64, n), make([]byte, 8*(t-1))
	if err := splitBytes(deal[:n], c.seed[:], t, ys, coef); err != nil {
		return nil, none, err
	}
	if err := splitBytes(deal[n:], c.sKey.Bytes(), t, ys, coef); err != nil {
		return nil, none, err
	}
	blind := make([]byte, 2*n*field.BlinderLen)
	if _, err := io.ReadFull(rand.Reader, blind); err != nil {
		return nil, none, fmt.Errorf("secagg: blinders: %w", err)
	}
	coms := make([][field.CommitmentLen]byte, 2*n)
	own := protocol.ShareCommitments{Owner: c.id, B: coms[:n:n], SK: coms[n:]}
	c.bundles = sealPool.Get().(*sealScratch)
	out := slices.Grow(c.bundles.out[:0], n)[:n] // zero: pooled wiped
	sealed := slices.Grow(c.bundles.sealed[:0], n*sealedLen)[:n*sealedLen]
	c.bundles.out, c.bundles.sealed = out, sealed
	// One ECDH + AES-GCM seal per other roster member, in roster order.
	for i, a := range c.roster {
		bl := blind[2*i*field.BlinderLen:]
		b := shareBundle{Owner: c.id, Holder: a.ID, BShare: deal[i], SKShare: deal[n+i],
			BBlind: [field.BlinderLen]byte(bl), SKBlind: [field.BlinderLen]byte(bl[field.BlinderLen:])}
		own.B[i] = commitChunked(c.id, kindB, b.BShare, b.BBlind)
		own.SK[i] = commitChunked(c.id, kindSK, b.SKShare, b.SKBlind)
		if i == c.pos {
			c.peers[i].shares, c.peers[i].held = b, true
			continue
		}
		shared, err := c.cKey.ECDH(a.CPK)
		if err != nil {
			return nil, none, err
		}
		clientAgree.Inc()
		clientAEAD.Inc()
		gcm, err := bundleAEAD(shared)
		if err != nil {
			return nil, none, err
		}
		c.peers[i].gcm = gcm
		out[i] = protocol.RoutedShare{Owner: c.id, Holder: b.Holder, CT: sealed[i*sealedLen : (i+1)*sealedLen : (i+1)*sealedLen]}
		if err := sealBundle(out[i].CT, gcm, &b); err != nil {
			return nil, none, err
		}
	}
	c.phase = dealt
	return slices.Delete(out, c.pos, c.pos+1), own, nil
}

// ReceiveShares installs the server's relay of every owner's share
// commitments, then decrypts, verifies, and stores the Round-1 bundles
// routed to this client; it follows ShareKeys, once. A bundle that fails
// decryption, is mis-addressed, or does not open its owner's broadcast
// commitments (a structurally invalid commitment set is dropped, so its
// owner's bundle opens none) is NOT an error: it yields a Complaint
// attributing the bad share to its owner, and the protocol continues
// without that owner. Only a server-side routing bug (a bundle for a
// different holder, or one from this client to itself) is a hard error.
func (c *Client) ReceiveShares(commits []protocol.ShareCommitments, shares []protocol.RoutedShare) ([]protocol.SecAggComplaint, error) {
	if err := c.phase.expect(dealt, "ReceiveShares"); err != nil {
		return nil, err
	}
	for _, rs := range shares {
		if rs.Holder != c.id || rs.Owner == c.id {
			return nil, fmt.Errorf("secagg: share from %d for holder %d routed to %d", rs.Owner, rs.Holder, c.id)
		}
	}
	c.phase = received
	n := len(c.roster)
	coms := make([]*protocol.ShareCommitments, n) // by owner position, into the broadcast
	for i := range commits {
		if p, ok := c.roster.find(commits[i].Owner); ok && validCommits(&commits[i], n) == nil {
			coms[p] = &commits[i]
		}
	}
	wantX := uint64(c.pos + 1)
	var complaints []protocol.SecAggComplaint
	complain := func(owner int, reason string) {
		complaints = append(complaints, protocol.SecAggComplaint{By: c.id, Against: owner, Reason: reason})
	}
	pt := make([]byte, 0, bundleWireLen) // every bundle opens into this
	for _, rs := range shares {
		p, ok := c.roster.find(rs.Owner)
		if !ok {
			complain(rs.Owner, "unknown owner")
			continue
		}
		var b shareBundle
		if err := openBundle(c.peers[p].gcm, rs.CT, pt, &b); err != nil {
			complain(rs.Owner, "undecryptable bundle: "+err.Error())
			continue
		}
		if b.Owner != rs.Owner || b.Holder != c.id {
			complain(rs.Owner, fmt.Sprintf("bundle metadata mismatch (owner %d/%d, holder %d)",
				b.Owner, rs.Owner, b.Holder))
			continue
		}
		if b.BShare.X != wantX || b.SKShare.X != wantX {
			complain(rs.Owner, fmt.Sprintf("share evaluation point %d/%d, want %d",
				b.BShare.X, b.SKShare.X, wantX))
			continue
		}
		com := coms[p]
		if com == nil {
			// This owner's commitments are missing or malformed: its shares
			// are unverifiable, so it cannot be allowed to reach
			// reconstruction.
			complain(rs.Owner, "no valid commitments broadcast")
			continue
		}
		if !verifyChunked(rs.Owner, kindB, b.BShare, b.BBlind, com.B[c.pos]) ||
			!verifyChunked(rs.Owner, kindSK, b.SKShare, b.SKBlind, com.SK[c.pos]) {
			complain(rs.Owner, "share does not open broadcast commitment")
			continue
		}
		c.peers[p].shares, c.peers[p].held = b, true
	}
	return complaints, nil
}

// ReceiveMaskSet installs the server's broadcast of the devices still in
// the protocol after the share round (the set U1.5: shares delivered and
// unblamed), ending it. Pairwise masks are computed over exactly this set.
func (c *Client) ReceiveMaskSet(ids []int) error {
	if err := c.phase.expect(received, "ReceiveMaskSet"); err != nil {
		return err
	}
	if len(ids) < c.cfg.T {
		return fmt.Errorf("secagg: mask set of %d below threshold %d", len(ids), c.cfg.T)
	}
	for _, id := range ids {
		if _, ok := c.roster.find(id); !ok {
			return fmt.Errorf("secagg: mask set member %d not in roster", id)
		}
	}
	if !slices.Contains(ids, c.id) {
		return fmt.Errorf("secagg: excluded from mask set (%d)", c.id)
	}
	for _, id := range ids {
		p, _ := c.roster.find(id)
		c.peers[p].masked = true
	}
	c.phase = masking
	return nil
}

// MaskedInput computes the Round-2 masked vector for input x:
// encode(x) + PRG(b_u) + Σ_{v>u} PRG(s_uv) − Σ_{v<u} PRG(s_uv).
func (c *Client) MaskedInput(x []float64) ([]uint64, error) {
	return c.maskInto(make([]uint64, c.cfg.VectorLen), x, new(prgChunk))
}

// maskInto is MaskedInput written over the caller's VectorLen-element y,
// through the caller's keystream chunk: x is encoded into the vector the
// masks are then folded into. Run hands every client of an instance the
// same y, which Server.AddMasked has consumed by the time the next client
// masks.
func (c *Client) maskInto(y []uint64, x []float64, buf *prgChunk) ([]uint64, error) {
	if err := c.phase.expect(masking, "MaskedInput"); err != nil {
		return nil, err
	}
	if len(x) != c.cfg.VectorLen {
		return nil, fmt.Errorf("secagg: input length %d, want %d", len(x), c.cfg.VectorLen)
	}
	y = encodeInto(y, x)
	// Pairwise masks over the mask set, in roster order, the client's own
	// position expanding its personal mask: a device excluded before this
	// round leaves no residual mask for the server to reconstruct.
	for p, pr := range c.peers {
		if !pr.masked {
			continue
		}
		seed, err := c.maskSeed(p)
		if err != nil {
			return nil, err
		}
		prgApply(seed[:], y, p < c.pos, buf)
		clientPRG.Inc()
	}
	c.phase = unmasking
	return y, nil
}

// Unmask produces the Round-3 response given the server's survivor set U2.
// It refuses to reveal when the survivor set is below threshold (which
// would let a malicious server unmask an individual) and never reveals both
// share kinds for one owner.
func (c *Client) Unmask(survivors []int) (*protocol.SecAggUnmask, error) {
	if err := c.phase.expect(unmasking, "Unmask"); err != nil {
		return nil, err
	}
	if len(survivors) < c.cfg.T {
		return nil, fmt.Errorf("secagg: refusing to unmask with %d < T=%d survivors", len(survivors), c.cfg.T)
	}
	surv := make([]bool, len(c.peers))
	for _, id := range survivors {
		p, ok := c.roster.find(id)
		if !ok {
			return nil, fmt.Errorf("secagg: survivor %d not in roster", id)
		}
		if !c.peers[p].masked {
			return nil, fmt.Errorf("secagg: claimed survivor %d is not in the mask set", id)
		}
		surv[p] = true
	}
	resp := &protocol.SecAggUnmask{From: c.id, BShares: make([]protocol.OwnerShare, 0, len(survivors))}
	for p, pr := range c.peers {
		// An owner excluded before masking contributed no masks, so neither
		// of its secrets is needed — and revealing its masking key
		// gratuitously would erode the privacy margin. Skip also an owner
		// whose share never arrived.
		if !pr.masked || !pr.held {
			continue
		}
		os := protocol.OwnerShare{Owner: c.roster[p].ID, Share: pr.shares.SKShare, Blinder: pr.shares.SKBlind}
		if surv[p] {
			os.Share, os.Blinder = pr.shares.BShare, pr.shares.BBlind
		}
		if surv[p] {
			resp.BShares = append(resp.BShares, os)
		} else {
			resp.SKShares = append(resp.SKShares, os)
		}
	}
	c.phase = done
	return resp, nil
}

// maskSeed derives the PRG seed of the mask for roster position p: the
// pairwise mask with that peer from the s-keypair or, at the client's own
// position, its personal mask.
func (c *Client) maskSeed(p int) ([32]byte, error) {
	if p == c.pos {
		return seedKey(c.seed[:]), nil
	}
	shared, err := c.sKey.ECDH(c.roster[p].SPK)
	if err != nil {
		return [32]byte{}, err
	}
	clientAgree.Inc()
	return pairwiseSeed(shared, 'p'), nil
}

// seedKey domain-separates the personal seed before use as a PRG key.
func seedKey(seed []byte) [32]byte {
	return pairwiseSeed(seed, 'b')
}
