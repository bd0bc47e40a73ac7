package secagg

import (
	"crypto/ecdh"
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/metrics"
)

// Process-wide secagg counters (cached pointers; the instruments live in
// metrics.Default and surface on /metrics as blame/dropout attribution).
var (
	obsComplaints = metrics.Default.Counter("fl_secagg_complaints_total")
	obsBlamed     = metrics.Default.Counter("fl_secagg_blamed_total")
	obsDropouts   = metrics.Default.Counter("fl_secagg_dropouts_total")
)

// Server is the aggregator side of one Secure Aggregation instance. It only
// ever holds masked vectors and aggregate state — never an individual
// cleartext update, which is the point of the protocol (Sec. 6: protection
// against "honest but curious" access to Aggregator memory).
//
// Robustness posture: every share the server consumes is verified against
// its owner's broadcast commitments before it can influence
// reconstruction, and every rejection is attributed to a device (the
// Blamed map). A blamed share-dealer is excluded from the mask set before
// the masked-input round, so the group commits without it; a blamed
// unmask responder has its shares skipped, and the sum still comes out
// right from the remaining ≥ T honest ones. The server can therefore
// never be steered into producing a wrong sum by a forged share — only
// into a (clean, attributed) abort when fewer than T honest participants
// remain.
type Server struct {
	cfg Config

	roster    map[int]KeyAdvert
	rosterIDs []int // sorted; frozen once Roster() is served

	// commits is each owner's broadcast share commitments; registration
	// doubles as the "shares delivered" signal for the mask set.
	commits map[int]ShareCommitments
	// blamed maps a device id to the reason it was excluded.
	blamed map[int]string
	// maskSet, once frozen by MaskSet, is the set of devices whose
	// pairwise masks are in play: shares delivered and unblamed. Nil until
	// frozen; instances driven without commitments (legacy path) never
	// freeze it and fall back to the full roster.
	maskSet map[int]bool
	maskIDs []int

	sum      []uint64 // running sum of masked inputs (online aggregation)
	maskedBy map[int]bool

	unmaskFrom map[int]bool
	bShares    map[int][]chunkedShare // owner -> revealed personal-seed shares
	skShares   map[int][]chunkedShare // owner -> revealed masking-key shares
}

// NewServer creates the server side of an instance.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:        cfg,
		roster:     make(map[int]KeyAdvert),
		commits:    make(map[int]ShareCommitments),
		blamed:     make(map[int]string),
		sum:        make([]uint64, cfg.VectorLen),
		maskedBy:   make(map[int]bool),
		unmaskFrom: make(map[int]bool),
		bShares:    make(map[int][]chunkedShare),
		skShares:   make(map[int][]chunkedShare),
	}, nil
}

// RegisterAdvert records a Round-0 key advertisement. Registration closes
// when Roster is first called.
func (s *Server) RegisterAdvert(a KeyAdvert) error {
	if s.rosterIDs != nil {
		return fmt.Errorf("secagg: roster already frozen")
	}
	if a.ID < 1 {
		return fmt.Errorf("secagg: invalid id %d", a.ID)
	}
	if _, dup := s.roster[a.ID]; dup {
		return fmt.Errorf("secagg: duplicate advert from %d", a.ID)
	}
	if len(s.roster) >= s.cfg.N {
		return fmt.Errorf("secagg: instance full (%d participants)", s.cfg.N)
	}
	s.roster[a.ID] = a
	return nil
}

// Roster freezes and returns the participant set U1 for broadcast. It fails
// if fewer than T devices advertised.
func (s *Server) Roster() ([]KeyAdvert, error) {
	if len(s.roster) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d adverts, need ≥ %d", len(s.roster), s.cfg.T)
	}
	if s.rosterIDs == nil {
		ids := make([]int, 0, len(s.roster))
		for id := range s.roster {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		s.rosterIDs = ids
	}
	out := make([]KeyAdvert, 0, len(s.rosterIDs))
	for _, id := range s.rosterIDs {
		out = append(out, s.roster[id])
	}
	return out, nil
}

// rosterIndex returns id's 0-based position in the sorted roster, or -1.
func (s *Server) rosterIndex(id int) int {
	for i, v := range s.rosterIDs {
		if v == id {
			return i
		}
	}
	return -1
}

// RegisterCommitments records an owner's Round-1 commitment broadcast.
// Registration is the server's "shares delivered" signal: an owner with
// no registered commitments never enters the mask set.
func (s *Server) RegisterCommitments(sc ShareCommitments) error {
	if s.rosterIDs == nil {
		return fmt.Errorf("secagg: commitments before roster freeze")
	}
	if s.maskIDs != nil {
		return fmt.Errorf("secagg: commitments after mask set freeze")
	}
	if _, ok := s.roster[sc.Owner]; !ok {
		return fmt.Errorf("secagg: commitments from unknown device %d", sc.Owner)
	}
	if _, dup := s.commits[sc.Owner]; dup {
		return fmt.Errorf("secagg: duplicate commitments from %d", sc.Owner)
	}
	if err := sc.validate(len(s.rosterIDs)); err != nil {
		s.blamed[sc.Owner] = err.Error()
		obsBlamed.Inc()
		return err
	}
	s.commits[sc.Owner] = sc
	return nil
}

// Commitments returns every registered commitment set for relay to the
// participants.
func (s *Server) Commitments() []ShareCommitments {
	out := make([]ShareCommitments, 0, len(s.commits))
	for _, id := range s.rosterIDs {
		if sc, ok := s.commits[id]; ok {
			out = append(out, sc)
		}
	}
	return out
}

// RouteShares groups the Round-1 bundles by holder for delivery. Bundles
// from unknown owners are dropped.
func (s *Server) RouteShares(all []RoutedShare) map[int][]RoutedShare {
	byHolder := make(map[int][]RoutedShare)
	for _, rs := range all {
		if _, ok := s.roster[rs.Owner]; !ok {
			continue
		}
		if _, ok := s.roster[rs.Holder]; !ok {
			continue
		}
		byHolder[rs.Holder] = append(byHolder[rs.Holder], rs)
	}
	return byHolder
}

// RegisterComplaint records a holder's report that an owner's share
// bundle failed verification. The owner is blamed and excluded when the
// mask set freezes; complaints after the freeze are rejected — a device
// whose masked input may already be in the online sum cannot be evicted.
func (s *Server) RegisterComplaint(c Complaint) error {
	if s.maskIDs != nil {
		return fmt.Errorf("secagg: complaint from %d against %d after mask set freeze", c.By, c.Against)
	}
	if _, ok := s.roster[c.By]; !ok {
		return fmt.Errorf("secagg: complaint from unknown device %d", c.By)
	}
	if _, ok := s.roster[c.Against]; !ok {
		return fmt.Errorf("secagg: complaint against unknown device %d", c.Against)
	}
	obsComplaints.Inc()
	if _, done := s.blamed[c.Against]; !done {
		s.blamed[c.Against] = fmt.Sprintf("complaint from %d: %s", c.By, c.Reason)
		obsBlamed.Inc()
	}
	return nil
}

// MaskSet freezes and returns the set U1.5 for broadcast: devices whose
// shares (commitments) arrived and that no holder blamed. Devices outside
// the set contribute no masks — their loss costs nothing at unmask time —
// and their masked inputs are refused. Fails if fewer than T remain.
func (s *Server) MaskSet() ([]int, error) {
	if s.rosterIDs == nil {
		return nil, fmt.Errorf("secagg: mask set before roster freeze")
	}
	if s.maskIDs == nil {
		ids := make([]int, 0, len(s.commits))
		set := make(map[int]bool, len(s.commits))
		for _, id := range s.rosterIDs {
			if _, ok := s.commits[id]; !ok {
				continue
			}
			if _, bad := s.blamed[id]; bad {
				continue
			}
			ids = append(ids, id)
			set[id] = true
		}
		if len(ids) < s.cfg.T {
			return nil, fmt.Errorf("secagg: only %d unblamed share-complete devices, need ≥ %d", len(ids), s.cfg.T)
		}
		obsDropouts.Add(int64(len(s.rosterIDs) - len(ids)))
		s.maskIDs, s.maskSet = ids, set
	}
	return append([]int(nil), s.maskIDs...), nil
}

// inMaskSet reports whether id participates in masking; before the freeze
// (legacy instances that never ran the commitment round) the whole roster
// does.
func (s *Server) inMaskSet(id int) bool {
	if s.maskSet == nil {
		_, ok := s.roster[id]
		return ok
	}
	return s.maskSet[id]
}

// maskMembers returns the mask-set ids (the full roster when no freeze
// happened).
func (s *Server) maskMembers() []int {
	if s.maskIDs != nil {
		return s.maskIDs
	}
	return s.rosterIDs
}

// Blamed returns the devices excluded or rejected so far, with reasons.
func (s *Server) Blamed() map[int]string {
	out := make(map[int]string, len(s.blamed))
	for id, why := range s.blamed {
		out[id] = why
	}
	return out
}

// AddMasked accumulates a Round-2 masked input into the running sum. The
// server never stores the individual vector beyond this addition.
func (s *Server) AddMasked(id int, y []uint64) error {
	if s.rosterIDs == nil {
		return fmt.Errorf("secagg: masked input before roster freeze")
	}
	if _, ok := s.roster[id]; !ok {
		return fmt.Errorf("secagg: masked input from unknown device %d", id)
	}
	if !s.inMaskSet(id) {
		return fmt.Errorf("secagg: masked input from %d, which is not in the mask set (%s)", id, s.blamed[id])
	}
	if s.maskedBy[id] {
		return fmt.Errorf("secagg: duplicate masked input from %d", id)
	}
	if len(y) != s.cfg.VectorLen {
		return fmt.Errorf("secagg: masked input length %d from %d, want %d", len(y), id, s.cfg.VectorLen)
	}
	field.AddVec(s.sum, s.sum, y)
	s.maskedBy[id] = true
	return nil
}

// Survivors returns the set U2 of devices whose masked input arrived,
// sorted. The round can proceed only if |U2| ≥ T.
func (s *Server) Survivors() ([]int, error) {
	if len(s.maskedBy) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d masked inputs, need ≥ %d", len(s.maskedBy), s.cfg.T)
	}
	out := make([]int, 0, len(s.maskedBy))
	for id := range s.maskedBy {
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

// AddUnmaskResponse validates and records a Round-3 response. The whole
// response is checked before any of it is admitted: every revealed share
// must come from a roster member, name a mask-set owner exactly once, sit
// at the responder's own evaluation point, reveal the kind matching the
// owner's survival status, and open the owner's broadcast commitment.
// Any violation rejects the entire response with an error attributing the
// responder (recorded in Blamed); reconstruction then proceeds from the
// other responders' shares, so a forger can force at most an attributed
// abort — never a wrong sum.
func (s *Server) AddUnmaskResponse(r *UnmaskResponse) error {
	if _, ok := s.roster[r.From]; !ok {
		return fmt.Errorf("secagg: unmask response from unknown device %d", r.From)
	}
	if s.unmaskFrom[r.From] {
		return fmt.Errorf("secagg: duplicate unmask response from %d", r.From)
	}
	if !s.inMaskSet(r.From) {
		return fmt.Errorf("secagg: unmask response from %d, which is not in the mask set", r.From)
	}
	idx := s.rosterIndex(r.From)
	wantX := uint64(idx + 1)
	blame := func(format string, args ...any) error {
		err := fmt.Errorf("secagg: unmask response from %d: "+format, append([]any{r.From}, args...)...)
		s.blamed[r.From] = err.Error()
		obsBlamed.Inc()
		return err
	}
	seen := make(map[int]bool, len(r.BShares)+len(r.SKShares))
	check := func(os OwnerShare, kind byte) error {
		if _, ok := s.roster[os.Owner]; !ok {
			return blame("share for non-roster device %d", os.Owner)
		}
		if !s.inMaskSet(os.Owner) {
			return blame("share for %d, which is outside the mask set", os.Owner)
		}
		if seen[os.Owner] {
			return blame("duplicate share for owner %d", os.Owner)
		}
		seen[os.Owner] = true
		if os.Share.X != wantX {
			return blame("share for %d at evaluation point %d, want own point %d", os.Owner, os.Share.X, wantX)
		}
		if kind == kindB && !s.maskedBy[os.Owner] {
			return blame("personal-seed share for dropped device %d", os.Owner)
		}
		if kind == kindSK && s.maskedBy[os.Owner] {
			return blame("masking-key share for surviving device %d — refusing to unmask an individual", os.Owner)
		}
		if com, ok := s.commits[os.Owner]; ok {
			var want []byte
			if kind == kindB {
				want = com.B[idx]
			} else {
				want = com.SK[idx]
			}
			if !verifyChunked(os.Owner, kind, os.Share, os.Blinder, want) {
				return blame("forged share for owner %d (commitment mismatch)", os.Owner)
			}
		} else if len(s.commits) > 0 {
			return blame("share for %d, whose commitments were never registered", os.Owner)
		}
		return nil
	}
	for _, os := range r.BShares {
		if err := check(os, kindB); err != nil {
			return err
		}
	}
	for _, os := range r.SKShares {
		if err := check(os, kindSK); err != nil {
			return err
		}
	}
	// Every share verified: admit the response atomically.
	s.unmaskFrom[r.From] = true
	for _, os := range r.BShares {
		s.bShares[os.Owner] = append(s.bShares[os.Owner], os.Share)
	}
	for _, os := range r.SKShares {
		s.skShares[os.Owner] = append(s.skShares[os.Owner], os.Share)
	}
	return nil
}

// Responses returns how many unmask responses were admitted.
func (s *Server) Responses() int { return len(s.unmaskFrom) }

// Sum finalizes the protocol: reconstructs personal seeds of survivors and
// masking keys of dropped mask-set devices, strips all masks, and returns
// the aggregate Σ_{u∈U2} x_u in field encoding (Decode converts to reals).
// Every share entering a reconstruction was verified on receipt, so a
// reconstruction can only fail for lack of shares — an attributed abort,
// never a silently wrong sum.
func (s *Server) Sum() ([]uint64, error) {
	survivors, err := s.Survivors()
	if err != nil {
		return nil, err
	}
	if len(s.unmaskFrom) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d unmask responses, need ≥ %d", len(s.unmaskFrom), s.cfg.T)
	}
	out := make([]uint64, s.cfg.VectorLen)
	copy(out, s.sum)

	// Reconstruct all secrets first (cheap Shamir interpolation, serial),
	// building one task per mask expansion. The expansions — an ECDH plus a
	// PRG stream each for dropped-device pairs, a PRG stream for survivor
	// personal masks — are the O(dropped × survivors) hot path and run on
	// the worker pool through its pooled scratch (parallelMasks).
	type maskTask struct {
		owner int
		peer  int              // pairwise tasks only
		seed  []byte           // PRG seed, when already known
		sk    *ecdh.PrivateKey // else derive the seed from sk × pub
		pub   []byte
		sub   bool
	}
	members := s.maskMembers()
	dropped := len(members) - len(survivors)
	tasks := make([]maskTask, 0, len(survivors)*(1+dropped))

	// Survivors' personal masks PRG(b_u) are subtracted.
	for _, u := range survivors {
		shares := s.bShares[u]
		if len(shares) < s.cfg.T {
			return nil, fmt.Errorf("secagg: %d verified personal-seed shares for %d, need %d", len(shares), u, s.cfg.T)
		}
		seed, err := reconstructBytes(shares[:s.cfg.T], s.cfg.T)
		if err != nil {
			return nil, fmt.Errorf("secagg: reconstruct seed of %d: %w", u, err)
		}
		tasks = append(tasks, maskTask{owner: u, seed: seedKey(seed), sub: true})
	}

	// Residual pairwise masks of mask-set devices that dropped after the
	// share round. Devices excluded before masking (outside the mask set)
	// left no residuals, so their loss costs nothing here.
	survSet := make(map[int]bool, len(survivors))
	for _, v := range survivors {
		survSet[v] = true
	}
	for _, u := range members {
		if survSet[u] {
			continue
		}
		shares := s.skShares[u]
		if len(shares) < s.cfg.T {
			return nil, fmt.Errorf("secagg: %d verified masking-key shares for dropped %d, need %d", len(shares), u, s.cfg.T)
		}
		skBytes, err := reconstructBytes(shares[:s.cfg.T], s.cfg.T)
		if err != nil {
			return nil, fmt.Errorf("secagg: reconstruct key of %d: %w", u, err)
		}
		sk, err := ecdh.X25519().NewPrivateKey(skBytes)
		if err != nil {
			return nil, fmt.Errorf("secagg: rebuild key of %d: %w", u, err)
		}
		for _, v := range survivors {
			// Survivor v's masked input contains +PRG(s_vu) when v<u and
			// −PRG(s_vu) when v>u; cancel that residual.
			tasks = append(tasks, maskTask{owner: u, peer: v, sk: sk, pub: s.roster[v].SPub, sub: v < u})
		}
	}

	err = parallelMasks(out, len(tasks), func(i int, acc []uint64, buf *prgChunk) error {
		t := tasks[i]
		seed := t.seed
		if seed == nil {
			pub, err := ecdh.X25519().NewPublicKey(t.pub)
			if err != nil {
				return fmt.Errorf("secagg: spub of %d: %w", t.peer, err)
			}
			shared, err := t.sk.ECDH(pub)
			if err != nil {
				return fmt.Errorf("secagg: ecdh %d×%d: %w", t.owner, t.peer, err)
			}
			seed = pairwiseSeed(shared, 'p')
		}
		prgApply(seed, acc, t.sub, buf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
