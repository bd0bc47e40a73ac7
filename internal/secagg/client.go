package secagg

import (
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"sort"

	"repro/internal/field"
)

// KeyAdvert is a device's Round-0 message: its identity and two X25519
// public keys (CPub for share encryption, SPub for pairwise masking).
type KeyAdvert struct {
	ID   int
	CPub []byte
	SPub []byte
}

// RoutedShare is an encrypted Round-1 share bundle in transit: the server
// routes it to its holder, who needs Owner to derive the decryption key.
type RoutedShare struct {
	Owner  int
	Holder int
	CT     []byte
}

// OwnerShare is one revealed share in a Round-3 unmask response. Blinder
// opens the owner's broadcast commitment to this share, letting the
// server verify the revelation before it enters reconstruction.
type OwnerShare struct {
	Owner   int
	Share   chunkedShare
	Blinder []byte
}

// UnmaskResponse is a device's Round-3 message: shares of the personal mask
// seeds of survivors and of the masking secret keys of dropped devices.
// A correct client never reveals both kinds for the same owner.
type UnmaskResponse struct {
	From     int
	BShares  []OwnerShare
	SKShares []OwnerShare
}

// Client is one device's protocol state machine: advertise → share (dealt,
// received) → mask → unmask → done. IDs are 1-based and must be unique
// within the instance.
type Client struct {
	id  int
	cfg Config

	phase phase

	cKey *ecdh.PrivateKey // share-encryption keypair
	sKey *ecdh.PrivateKey // masking keypair
	seed []byte           // personal mask seed b_u

	roster    map[int]KeyAdvert
	rosterIDs []int

	held map[int]*shareBundle // shares I hold, keyed by owner

	// commits holds every owner's broadcast share commitments, installed
	// by ReceiveShares.
	commits map[int]ShareCommitments

	// maskSet is the server's broadcast of the devices still in the
	// protocol after the share round (shares delivered, not blamed).
	// Pairwise masks cover exactly this set, so a device that vanished or
	// was excluded before masking leaves no residual mask to reconstruct.
	maskSet map[int]bool

	// poison and forge are adversary injection hooks for the churn driver
	// and tests: poison corrupts the Round-1 share bundles after the
	// commitments are computed (holders detect the mismatch and complain);
	// forge corrupts the shares revealed in the Round-3 unmask response
	// (the server detects the mismatch and blames this responder).
	poison bool
	forge  bool

	// cShared caches the share-encryption AEAD per peer: the ECDH secret
	// behind it is symmetric, so the instance built to seal an outgoing
	// bundle in Round 1 opens the incoming bundle from the same peer —
	// deriving it twice would double the client's dominant X25519 cost and
	// build AES-GCM twice per pair.
	cShared map[int]cipher.AEAD
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
	seed := make([]byte, secretByteLen)
	if _, err := io.ReadFull(rand.Reader, seed); err != nil {
		return nil, fmt.Errorf("secagg: seed: %w", err)
	}
	return &Client{
		id: id, cfg: cfg, cKey: cKey, sKey: sKey, seed: seed,
		held:    make(map[int]*shareBundle),
		cShared: make(map[int]cipher.AEAD),
	}, nil
}

// Advertise returns the Round-0 key advertisement.
func (c *Client) Advertise() KeyAdvert {
	return KeyAdvert{ID: c.id, CPub: c.cKey.PublicKey().Bytes(), SPub: c.sKey.PublicKey().Bytes()}
}

// ReceiveRoster installs the server's broadcast of Round-0 adverts (the set
// U1). The roster must contain this client and at least T participants.
func (c *Client) ReceiveRoster(roster []KeyAdvert) error {
	if err := c.phase.expect(advertising, "ReceiveRoster"); err != nil {
		return err
	}
	if len(roster) < c.cfg.T {
		return fmt.Errorf("secagg: roster of %d below threshold %d", len(roster), c.cfg.T)
	}
	m := make(map[int]KeyAdvert, len(roster))
	ids := make([]int, 0, len(roster))
	for _, a := range roster {
		if _, dup := m[a.ID]; dup {
			return fmt.Errorf("secagg: duplicate id %d in roster", a.ID)
		}
		m[a.ID] = a
		ids = append(ids, a.ID)
	}
	if _, ok := m[c.id]; !ok {
		return fmt.Errorf("secagg: roster does not include self (%d)", c.id)
	}
	sort.Ints(ids)
	c.roster = m
	c.rosterIDs = ids
	c.phase = sharing
	return nil
}

// ShareKeys produces the Round-1 encrypted share bundles, one per roster
// member (including one to self, which the server routes back), and the
// matching commitment broadcast. It deals once.
func (c *Client) ShareKeys() ([]RoutedShare, ShareCommitments, error) {
	if err := c.phase.expect(sharing, "ShareKeys"); err != nil {
		return nil, ShareCommitments{}, err
	}
	n := len(c.rosterIDs)
	bShares, err := splitBytes(c.seed, n, c.cfg.T, rand.Reader)
	if err != nil {
		return nil, ShareCommitments{}, err
	}
	skShares, err := splitBytes(c.sKey.Bytes(), n, c.cfg.T, rand.Reader)
	if err != nil {
		return nil, ShareCommitments{}, err
	}
	own := ShareCommitments{Owner: c.id, B: make([][]byte, n), SK: make([][]byte, n)}
	out := make([]RoutedShare, n)
	aeads := make([]cipher.AEAD, n)
	// One ECDH + AES-GCM seal per roster member: independent work, fanned
	// across the worker pool. Workers write only their own slots; the
	// AEAD cache (a map) is filled serially afterwards.
	err = parallelFor(n, func(i int) error {
		holder := c.rosterIDs[i]
		bundle := &shareBundle{Owner: c.id, Holder: holder, BShare: bShares[i], SKShare: skShares[i]}
		// Re-key share X coordinates to the holder id so reconstruction uses
		// consistent evaluation points across owners.
		bundle.BShare.X = uint64(i + 1)
		bundle.SKShare.X = uint64(i + 1)
		bBlind, err := field.NewBlinder(rand.Reader)
		if err != nil {
			return err
		}
		skBlind, err := field.NewBlinder(rand.Reader)
		if err != nil {
			return err
		}
		bundle.BBlind, bundle.SKBlind = bBlind, skBlind
		bc := commitChunked(c.id, kindB, bundle.BShare, bundle.BBlind)
		kc := commitChunked(c.id, kindSK, bundle.SKShare, bundle.SKBlind)
		own.B[i] = bc[:]
		own.SK[i] = kc[:]
		if c.poison {
			// Adversary hook: commit honestly, then ship a share that does
			// not open the commitment — the holder must detect and complain.
			bundle.BShare.Ys[0] = field.Add(bundle.BShare.Ys[0], 1)
			bundle.SKShare.Ys[0] = field.Add(bundle.SKShare.Ys[0], 1)
		}
		gcm, err := c.deriveC(holder)
		if err != nil {
			return err
		}
		aeads[i] = gcm
		ct, err := encryptBundle(gcm, bundle)
		if err != nil {
			return err
		}
		out[i] = RoutedShare{Owner: c.id, Holder: holder, CT: ct}
		return nil
	})
	if err != nil {
		return nil, ShareCommitments{}, err
	}
	for i, holder := range c.rosterIDs {
		c.cShared[holder] = aeads[i]
	}
	c.phase = dealt
	return out, own, nil
}

// ReceiveShares installs the server's relay of every owner's share
// commitments, then decrypts, verifies, and stores the Round-1 bundles
// routed to this client; it follows ShareKeys, once. A bundle that fails
// decryption, is mis-addressed, or does not open its owner's broadcast
// commitments (a structurally invalid commitment set is dropped, so its
// owner's bundle opens none) is NOT an error: it yields a Complaint
// attributing the bad share to its owner, and the protocol continues
// without that owner. Only a server-side routing bug (a bundle for a
// different holder) is a hard error.
func (c *Client) ReceiveShares(commits []ShareCommitments, shares []RoutedShare) ([]Complaint, error) {
	if err := c.phase.expect(dealt, "ReceiveShares"); err != nil {
		return nil, err
	}
	for _, rs := range shares {
		if rs.Holder != c.id {
			return nil, fmt.Errorf("secagg: share for holder %d routed to %d", rs.Holder, c.id)
		}
	}
	c.phase = received
	c.commits = make(map[int]ShareCommitments, len(commits))
	for _, sc := range commits {
		if _, ok := c.roster[sc.Owner]; ok && sc.validate(len(c.rosterIDs)) == nil {
			c.commits[sc.Owner] = sc
		}
	}
	idx := sort.SearchInts(c.rosterIDs, c.id) // its shares' evaluation point is idx+1
	wantX := uint64(idx + 1)
	var complaints []Complaint
	complain := func(owner int, reason string) {
		complaints = append(complaints, Complaint{By: c.id, Against: owner, Reason: reason})
	}
	pt := make([]byte, 0, bundleWireLen) // every bundle opens into this
	for _, rs := range shares {
		gcm, err := c.pairwiseC(rs.Owner)
		if err != nil {
			complain(rs.Owner, "unknown owner: "+err.Error())
			continue
		}
		bundle, err := decryptBundle(gcm, rs.CT, pt)
		if err != nil {
			complain(rs.Owner, "undecryptable bundle: "+err.Error())
			continue
		}
		if bundle.Owner != rs.Owner || bundle.Holder != c.id {
			complain(rs.Owner, fmt.Sprintf("bundle metadata mismatch (owner %d/%d, holder %d)",
				bundle.Owner, rs.Owner, bundle.Holder))
			continue
		}
		if bundle.BShare.X != wantX || bundle.SKShare.X != wantX {
			complain(rs.Owner, fmt.Sprintf("share evaluation point %d/%d, want %d",
				bundle.BShare.X, bundle.SKShare.X, wantX))
			continue
		}
		com, ok := c.commits[rs.Owner]
		if !ok {
			// This owner's commitments are missing or malformed: its shares
			// are unverifiable, so it cannot be allowed to reach
			// reconstruction.
			complain(rs.Owner, "no valid commitments broadcast")
			continue
		}
		if !verifyChunked(rs.Owner, kindB, bundle.BShare, bundle.BBlind, com.B[idx]) ||
			!verifyChunked(rs.Owner, kindSK, bundle.SKShare, bundle.SKBlind, com.SK[idx]) {
			complain(rs.Owner, "share does not open broadcast commitment")
			continue
		}
		c.held[bundle.Owner] = bundle
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
	set := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, ok := c.roster[id]; !ok {
			return fmt.Errorf("secagg: mask set member %d not in roster", id)
		}
		set[id] = true
	}
	if !set[c.id] {
		return fmt.Errorf("secagg: excluded from mask set (%d)", c.id)
	}
	c.maskSet = set
	c.phase = masking
	return nil
}

// MaskedInput computes the Round-2 masked vector for input x:
// Encode(x) + PRG(b_u) + Σ_{v>u} PRG(s_uv) − Σ_{v<u} PRG(s_uv).
func (c *Client) MaskedInput(x []float64) ([]uint64, error) {
	return c.maskInto(make([]uint64, c.cfg.VectorLen), x)
}

// maskInto is MaskedInput written over the caller's VectorLen-element y: x
// is encoded into the vector the masks are then folded into. RunSchedule
// hands every client of an instance the same y, which Server.AddMasked has
// consumed by the time the next client masks.
func (c *Client) maskInto(y []uint64, x []float64) ([]uint64, error) {
	if err := c.phase.expect(masking, "MaskedInput"); err != nil {
		return nil, err
	}
	if len(x) != c.cfg.VectorLen {
		return nil, fmt.Errorf("secagg: input length %d, want %d", len(x), c.cfg.VectorLen)
	}
	y = encodeInto(y, x)
	// Pairwise masks over the mask set: a device excluded before this round
	// leaves no residual mask for the server to reconstruct. The ECDH + PRG
	// expansions dominate device-side cost; fan them across the worker pool
	// — the personal mask is one more task after the peers' — each worker
	// folding masks into the accumulator it is handed. ECDH on the
	// (immutable) s-key and roster reads are safe concurrently.
	peers := make([]int, 0, len(c.maskSet)-1)
	for _, v := range c.rosterIDs {
		if v != c.id && c.maskSet[v] {
			peers = append(peers, v)
		}
	}
	err := parallelMasks(y, len(peers)+1, func(i int, acc []uint64, buf *prgChunk) error {
		if i == len(peers) {
			prgApply(seedKey(c.seed), acc, false, buf)
			return nil
		}
		v := peers[i]
		seedUV, err := c.pairwiseS(v)
		if err != nil {
			return err
		}
		prgApply(seedUV, acc, c.id > v, buf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.phase = unmasking
	return y, nil
}

// Unmask produces the Round-3 response given the server's survivor set U2.
// It refuses to reveal when the survivor set is below threshold (which
// would let a malicious server unmask an individual) and never reveals both
// share kinds for one owner.
func (c *Client) Unmask(survivors []int) (*UnmaskResponse, error) {
	if err := c.phase.expect(unmasking, "Unmask"); err != nil {
		return nil, err
	}
	if len(survivors) < c.cfg.T {
		return nil, fmt.Errorf("secagg: refusing to unmask with %d < T=%d survivors", len(survivors), c.cfg.T)
	}
	surv := make(map[int]bool, len(survivors))
	for _, id := range survivors {
		if _, ok := c.roster[id]; !ok {
			return nil, fmt.Errorf("secagg: survivor %d not in roster", id)
		}
		if !c.maskSet[id] {
			return nil, fmt.Errorf("secagg: claimed survivor %d is not in the mask set", id)
		}
		surv[id] = true
	}
	resp := &UnmaskResponse{From: c.id}
	for _, owner := range c.rosterIDs {
		if !c.maskSet[owner] {
			// Excluded before masking: it contributed no masks, so neither
			// of its secrets is needed — and revealing its masking key
			// gratuitously would erode the privacy margin.
			continue
		}
		bundle, ok := c.held[owner]
		if !ok {
			continue // never received a share from this owner
		}
		os := OwnerShare{Owner: owner}
		if surv[owner] {
			os.Share, os.Blinder = bundle.BShare, bundle.BBlind
			if c.forge {
				os.Share.Ys[0] = field.Add(os.Share.Ys[0], 1)
			}
			resp.BShares = append(resp.BShares, os)
		} else {
			os.Share, os.Blinder = bundle.SKShare, bundle.SKBlind
			if c.forge {
				os.Share.Ys[0] = field.Add(os.Share.Ys[0], 1)
			}
			resp.SKShares = append(resp.SKShares, os)
		}
	}
	c.phase = done
	return resp, nil
}

// deriveC builds the share-encryption AEAD with peer (cache-free; safe to
// call from workers).
func (c *Client) deriveC(peer int) (cipher.AEAD, error) {
	a, ok := c.roster[peer]
	if !ok {
		return nil, fmt.Errorf("secagg: unknown peer %d", peer)
	}
	pub, err := ecdh.X25519().NewPublicKey(a.CPub)
	if err != nil {
		return nil, fmt.Errorf("secagg: peer %d cpub: %w", peer, err)
	}
	shared, err := c.cKey.ECDH(pub)
	if err != nil {
		return nil, err
	}
	return bundleAEAD(shared)
}

// pairwiseC returns the share-encryption AEAD with peer, deriving and
// caching it on first use.
func (c *Client) pairwiseC(peer int) (cipher.AEAD, error) {
	if gcm, ok := c.cShared[peer]; ok {
		return gcm, nil
	}
	gcm, err := c.deriveC(peer)
	if err != nil {
		return nil, err
	}
	c.cShared[peer] = gcm
	return gcm, nil
}

// pairwiseS derives the masking PRG seed with peer from the s-keypair.
func (c *Client) pairwiseS(peer int) ([]byte, error) {
	a, ok := c.roster[peer]
	if !ok {
		return nil, fmt.Errorf("secagg: unknown peer %d", peer)
	}
	pub, err := ecdh.X25519().NewPublicKey(a.SPub)
	if err != nil {
		return nil, fmt.Errorf("secagg: peer %d spub: %w", peer, err)
	}
	shared, err := c.sKey.ECDH(pub)
	if err != nil {
		return nil, err
	}
	return pairwiseSeed(shared, 'p'), nil
}

// seedKey domain-separates the personal seed before use as a PRG key.
func seedKey(seed []byte) []byte {
	return pairwiseSeed(seed, 'b')
}
