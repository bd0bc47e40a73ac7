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

	// fl_secagg_ops_total{role,op}: the crypto an instance costs each side —
	// X25519 key generations and agreements, AES-GCM builds, PRG expansions.
	clientKeygen, clientAgree, clientAEAD, clientPRG = secaggOps("client")
	_, serverAgree, _, serverPRG                     = secaggOps("server")
)

func secaggOps(role string) (keygen, agree, aead, prg *metrics.Counter) {
	op := func(name string) *metrics.Counter {
		return metrics.Default.Counter(metrics.Label("fl_secagg_ops_total", "role", role, "op", name))
	}
	return op("keygen"), op("agree"), op("aead"), op("prg")
}

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
//
// Its phases are the client's, the share round taken as one: advertise →
// share → mask → unmask → done. Roster, MaskSet and Survivors each freeze one set and move to the next
// phase; Sum ends the instance.
type Server struct {
	cfg   Config
	phase phase

	roster    map[int]KeyAdvert
	rosterIDs []int // sorted; frozen by Roster

	// commits is each owner's broadcast share commitments; registration
	// doubles as the "shares delivered" signal for the mask set.
	commits map[int]ShareCommitments
	// blamed maps a device id to the reason it was excluded.
	blamed map[int]string
	// maskSet, frozen by MaskSet, is the set of devices whose pairwise
	// masks are in play: shares delivered and unblamed.
	maskSet map[int]bool
	maskIDs []int

	sum      []uint64 // running sum of masked inputs (online aggregation)
	maskedBy map[int]bool
	// survivors is U2, frozen by Survivors: no masked input joins the sum
	// after it is announced, and no unmask response is taken before.
	survivors []int

	unmaskFrom map[int]bool
	// revealed holds by owner position the first T verified shares the
	// unmask responses reveal: of a survivor's personal seed, or of a
	// dropped member's masking key, never both kinds for one owner.
	revealed [][]chunkedShare
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
	}, nil
}

// RegisterAdvert records a Round-0 key advertisement. Registration closes
// when Roster is called.
func (s *Server) RegisterAdvert(a KeyAdvert) error {
	if err := s.phase.expect(advertising, "RegisterAdvert"); err != nil {
		return err
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
	if err := s.phase.expect(advertising, "Roster"); err != nil {
		return nil, err
	}
	if len(s.roster) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d adverts, need ≥ %d", len(s.roster), s.cfg.T)
	}
	s.rosterIDs = make([]int, 0, len(s.roster))
	for id := range s.roster {
		s.rosterIDs = append(s.rosterIDs, id)
	}
	sort.Ints(s.rosterIDs)
	out := make([]KeyAdvert, 0, len(s.rosterIDs))
	for _, id := range s.rosterIDs {
		out = append(out, s.roster[id])
	}
	s.phase = sharing
	return out, nil
}

// RegisterCommitments records an owner's Round-1 commitment broadcast.
// Registration is the server's "shares delivered" signal: an owner with
// no registered commitments never enters the mask set.
func (s *Server) RegisterCommitments(sc ShareCommitments) error {
	if err := s.phase.expect(sharing, "RegisterCommitments"); err != nil {
		return err
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

// RouteShares is the share round's relay: it groups the Round-1 bundles by
// holder for delivery, dropping bundles between strangers or from a device
// to itself, and returns every registered commitment set for broadcast
// beside them.
func (s *Server) RouteShares(all []RoutedShare) (map[int][]RoutedShare, []ShareCommitments, error) {
	if err := s.phase.expect(sharing, "RouteShares"); err != nil {
		return nil, nil, err
	}
	byHolder := make(map[int][]RoutedShare)
	for _, rs := range all {
		_, owner := s.roster[rs.Owner]
		_, holder := s.roster[rs.Holder]
		if owner && holder && rs.Owner != rs.Holder {
			byHolder[rs.Holder] = append(byHolder[rs.Holder], rs)
		}
	}
	commits := make([]ShareCommitments, 0, len(s.commits))
	for _, id := range s.rosterIDs {
		if sc, ok := s.commits[id]; ok {
			commits = append(commits, sc)
		}
	}
	return byHolder, commits, nil
}

// RegisterComplaint records a holder's report that an owner's share
// bundle failed verification. The owner is blamed and excluded when the
// mask set freezes; complaints after the freeze are rejected — a device
// whose masked input may already be in the online sum cannot be evicted.
func (s *Server) RegisterComplaint(c Complaint) error {
	if err := s.phase.expect(sharing, "RegisterComplaint"); err != nil {
		return err
	}
	if _, ok := s.roster[c.By]; !ok {
		return fmt.Errorf("secagg: complaint from unknown device %d", c.By)
	}
	if _, ok := s.roster[c.Against]; !ok {
		return fmt.Errorf("secagg: complaint against unknown device %d", c.Against)
	}
	obsComplaints.Inc()
	if _, already := s.blamed[c.Against]; !already {
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
	if err := s.phase.expect(sharing, "MaskSet"); err != nil {
		return nil, err
	}
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
	s.phase = masking
	return append([]int(nil), ids...), nil
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
	if err := s.phase.expect(masking, "AddMasked"); err != nil {
		return err
	}
	if _, ok := s.roster[id]; !ok {
		return fmt.Errorf("secagg: masked input from unknown device %d", id)
	}
	if !s.maskSet[id] {
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

// Survivors freezes and returns the set U2 of devices whose masked input
// arrived, sorted, for broadcast: from here no masked input joins the sum,
// and unmask responses are taken. The round can proceed only if |U2| ≥ T.
func (s *Server) Survivors() ([]int, error) {
	if err := s.phase.expect(masking, "Survivors"); err != nil {
		return nil, err
	}
	if len(s.maskedBy) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d masked inputs, need ≥ %d", len(s.maskedBy), s.cfg.T)
	}
	s.survivors = make([]int, 0, len(s.maskedBy))
	for id := range s.maskedBy {
		s.survivors = append(s.survivors, id)
	}
	sort.Ints(s.survivors)
	n, t := len(s.rosterIDs), s.cfg.T
	block := make([]chunkedShare, n*t)
	s.revealed = make([][]chunkedShare, n)
	for p := range s.revealed {
		s.revealed[p] = block[p*t : p*t : (p+1)*t]
	}
	s.phase = unmasking
	return append([]int(nil), s.survivors...), nil
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
	if err := s.phase.expect(unmasking, "AddUnmaskResponse"); err != nil {
		return err
	}
	if _, ok := s.roster[r.From]; !ok {
		return fmt.Errorf("secagg: unmask response from unknown device %d", r.From)
	}
	if s.unmaskFrom[r.From] {
		return fmt.Errorf("secagg: duplicate unmask response from %d", r.From)
	}
	if !s.maskSet[r.From] {
		return fmt.Errorf("secagg: unmask response from %d, which is not in the mask set", r.From)
	}
	idx := s.pos(r.From)
	wantX := uint64(idx + 1)
	blame := func(format string, args ...any) error {
		err := fmt.Errorf("secagg: unmask response from %d: "+format, append([]any{r.From}, args...)...)
		s.blamed[r.From] = err.Error()
		obsBlamed.Inc()
		return err
	}
	seen := make([]bool, len(s.rosterIDs)) // by owner position
	check := func(os OwnerShare, kind byte) error {
		if _, ok := s.roster[os.Owner]; !ok {
			return blame("share for non-roster device %d", os.Owner)
		}
		if !s.maskSet[os.Owner] {
			return blame("share for %d, which is outside the mask set", os.Owner)
		}
		p := s.pos(os.Owner)
		if seen[p] {
			return blame("duplicate share for owner %d", os.Owner)
		}
		seen[p] = true
		if os.Share.X != wantX {
			return blame("share for %d at evaluation point %d, want own point %d", os.Owner, os.Share.X, wantX)
		}
		if kind == kindB && !s.maskedBy[os.Owner] {
			return blame("personal-seed share for dropped device %d", os.Owner)
		}
		if kind == kindSK && s.maskedBy[os.Owner] {
			return blame("masking-key share for surviving device %d — refusing to unmask an individual", os.Owner)
		}
		// Every mask-set member registered its commitments.
		want := s.commits[os.Owner].B[idx]
		if kind == kindSK {
			want = s.commits[os.Owner].SK[idx]
		}
		if !verifyChunked(os.Owner, kind, os.Share, os.Blinder, want) {
			return blame("forged share for owner %d (commitment mismatch)", os.Owner)
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
	for _, list := range [...][]OwnerShare{r.BShares, r.SKShares} {
		for _, os := range list {
			if p := s.pos(os.Owner); len(s.revealed[p]) < s.cfg.T {
				s.revealed[p] = append(s.revealed[p], os.Share)
			}
		}
	}
	return nil
}

// pos returns the roster position of id, a roster member.
func (s *Server) pos(id int) int { return sort.SearchInts(s.rosterIDs, id) }

// Responses returns how many unmask responses were admitted.
func (s *Server) Responses() int { return len(s.unmaskFrom) }

// Sum finalizes the protocol: reconstructs personal seeds of survivors and
// masking keys of dropped mask-set devices, strips all masks from the
// running sum in place, and returns it: the aggregate Σ_{u∈U2} x_u in field
// encoding (Decode converts to reals). Every share entering a
// reconstruction was verified on receipt, so a reconstruction can only fail
// for lack of shares — an attributed abort, never a silently wrong sum. That
// failure leaves the instance as it was, to take more responses; once the
// secrets are rebuilt, Sum ends the instance, whatever the unmasking meets.
func (s *Server) Sum() ([]uint64, error) {
	if err := s.phase.expect(unmasking, "Sum"); err != nil {
		return nil, err
	}
	survivors, members := s.survivors, s.maskIDs
	if len(s.unmaskFrom) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d unmask responses, need ≥ %d", len(s.unmaskFrom), s.cfg.T)
	}

	// Reconstruct all secrets first (cheap Shamir interpolation, serial),
	// building one task per mask expansion. The expansions — an ECDH plus a
	// PRG stream each for dropped-device pairs, a PRG stream for survivor
	// personal masks — are the O(dropped × survivors) hot path and run on
	// the worker pool through its pooled scratch (parallelMasks).
	type maskTask struct {
		owner int
		peer  int              // pairwise tasks only
		seed  [32]byte         // PRG seed, when already known
		sk    *ecdh.PrivateKey // else derive the seed from sk × pub
		pub   []byte
		sub   bool
	}
	dropped := len(members) - len(survivors)
	tasks := make([]maskTask, 0, len(survivors)*(1+dropped))
	scratch := make([]uint64, 2*s.cfg.T)

	// Survivors' personal masks PRG(b_u) are subtracted.
	for _, u := range survivors {
		shares := s.revealed[s.pos(u)]
		if len(shares) < s.cfg.T {
			return nil, fmt.Errorf("secagg: %d verified personal-seed shares for %d, need %d", len(shares), u, s.cfg.T)
		}
		seed, err := reconstructBytes(shares, scratch)
		if err != nil {
			return nil, fmt.Errorf("secagg: reconstruct seed of %d: %w", u, err)
		}
		tasks = append(tasks, maskTask{owner: u, seed: seedKey(seed[:]), sub: true})
	}

	// Residual pairwise masks of mask-set devices that dropped after the
	// share round. Devices excluded before masking (outside the mask set)
	// left no residuals, so their loss costs nothing here.
	for _, u := range members {
		if s.maskedBy[u] {
			continue
		}
		shares := s.revealed[s.pos(u)]
		if len(shares) < s.cfg.T {
			return nil, fmt.Errorf("secagg: %d verified masking-key shares for dropped %d, need %d", len(shares), u, s.cfg.T)
		}
		skBytes, err := reconstructBytes(shares, scratch)
		if err != nil {
			return nil, fmt.Errorf("secagg: reconstruct key of %d: %w", u, err)
		}
		sk, err := ecdh.X25519().NewPrivateKey(skBytes[:])
		if err != nil {
			return nil, fmt.Errorf("secagg: rebuild key of %d: %w", u, err)
		}
		for _, v := range survivors {
			// Survivor v's masked input contains +PRG(s_vu) when v<u and
			// −PRG(s_vu) when v>u; cancel that residual.
			tasks = append(tasks, maskTask{owner: u, peer: v, sk: sk, pub: s.roster[v].SPub, sub: v < u})
		}
	}

	s.phase = done
	err := parallelMasks(s.sum, len(tasks), func(i int, acc []uint64, buf *prgChunk) error {
		t := &tasks[i]
		if t.sk != nil {
			pub, err := ecdh.X25519().NewPublicKey(t.pub)
			if err != nil {
				return fmt.Errorf("secagg: spub of %d: %w", t.peer, err)
			}
			shared, err := t.sk.ECDH(pub)
			if err != nil {
				return fmt.Errorf("secagg: ecdh %d×%d: %w", t.owner, t.peer, err)
			}
			serverAgree.Inc()
			t.seed = pairwiseSeed(shared, 'p')
		}
		prgApply(t.seed[:], acc, t.sub, buf)
		serverPRG.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.sum, nil
}
