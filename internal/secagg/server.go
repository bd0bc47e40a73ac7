package secagg

import (
	"cmp"
	"crypto/ecdh"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/protocol"
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
// phase; Sum ends the instance. Once Roster has frozen U1, all the server
// keeps per device is one table by roster position (members).
type Server struct {
	cfg   Config
	phase phase

	// roster is U1: the adverts, their keys parsed, ids ascending once
	// Roster freezes it. members holds by the same positions the rest.
	roster    roster
	members   []member
	sum       *maskScratch // running sum of masked inputs (online aggregation)
	responded int          // admitted unmask responses
}

// member is what the server keeps for one roster position.
type member struct {
	// commits is the device's broadcast share commitments; registration
	// (a non-nil B) doubles as the "shares delivered" signal for the mask set.
	commits protocol.ShareCommitments
	// blamed is why the device was excluded or rejected; "" if it was not.
	blamed string
	// maskSet: in the mask set, frozen by MaskSet — shares delivered and
	// unblamed. masked: its masked input is in the sum, the set U2 that
	// Survivors freezes. unmasked: its unmask response was admitted.
	maskSet, masked, unmasked bool
	// revealed holds the first T verified shares the unmask responses
	// reveal: of a survivor's personal seed, or of a dropped member's
	// masking key, never both kinds for one owner.
	revealed []chunkedShare
}

// NewServer creates the server side of an instance. Its running sum is
// pooled scratch, which Run gives back wiped (release).
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, roster: make(roster, 0, cfg.N), sum: lend(cfg.VectorLen)}, nil
}

// release pools the running sum, wiped: Sum's result must be read first.
func (s *Server) release() { s.sum.release() }

// RegisterAdvert records a Round-0 key advertisement, parsing its two
// public keys once for the whole instance: the roster broadcast carries
// them parsed to every client. Registration closes when Roster is called.
func (s *Server) RegisterAdvert(a protocol.SecAggAdvertise) error {
	if err := s.phase.expect(advertising, "RegisterAdvert"); err != nil {
		return err
	}
	if a.ID < 1 {
		return fmt.Errorf("secagg: invalid id %d", a.ID)
	}
	if slices.ContainsFunc(s.roster, func(b protocol.SecAggAdvertise) bool { return b.ID == a.ID }) {
		return fmt.Errorf("secagg: duplicate advert from %d", a.ID)
	}
	if len(s.roster) >= s.cfg.N {
		return fmt.Errorf("secagg: instance full (%d participants)", s.cfg.N)
	}
	var err error
	if a.CPK, err = ecdh.X25519().NewPublicKey(a.CPub); err == nil {
		a.SPK, err = ecdh.X25519().NewPublicKey(a.SPub)
	}
	if err != nil {
		return fmt.Errorf("secagg: advert from %d: %w", a.ID, err)
	}
	s.roster = append(s.roster, a)
	return nil
}

// Roster freezes and returns the participant set U1 for broadcast: the
// server's own table, which every client keeps as given and no one may
// modify. It fails if fewer than T devices advertised.
func (s *Server) Roster() ([]protocol.SecAggAdvertise, error) {
	if err := s.phase.expect(advertising, "Roster"); err != nil {
		return nil, err
	}
	if len(s.roster) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d adverts, need ≥ %d", len(s.roster), s.cfg.T)
	}
	slices.SortFunc(s.roster, func(a, b protocol.SecAggAdvertise) int { return cmp.Compare(a.ID, b.ID) })
	s.members = make([]member, len(s.roster))
	s.phase = sharing
	return s.roster, nil
}

// RegisterCommitments records an owner's Round-1 commitment broadcast.
// Registration is the server's "shares delivered" signal: an owner with
// no registered commitments never enters the mask set.
func (s *Server) RegisterCommitments(sc protocol.ShareCommitments) error {
	if err := s.phase.expect(sharing, "RegisterCommitments"); err != nil {
		return err
	}
	p, ok := s.roster.find(sc.Owner)
	if !ok {
		return fmt.Errorf("secagg: commitments from unknown device %d", sc.Owner)
	}
	m := &s.members[p]
	if m.commits.B != nil {
		return fmt.Errorf("secagg: duplicate commitments from %d", sc.Owner)
	}
	if err := validCommits(&sc, len(s.roster)); err != nil {
		m.blamed = err.Error()
		obsBlamed.Inc()
		return err
	}
	m.commits = sc
	return nil
}

// RouteShares is the share round's relay: it groups the Round-1 bundles by
// holder for delivery, dropping bundles between strangers or from a device
// to itself, and returns every registered commitment set for broadcast
// beside them. It works in all's storage: the bundles are sorted in place
// by holder, then owner, and the result holds by holder position a window
// of it.
func (s *Server) RouteShares(all []protocol.RoutedShare) ([][]protocol.RoutedShare, []protocol.ShareCommitments, error) {
	if err := s.phase.expect(sharing, "RouteShares"); err != nil {
		return nil, nil, err
	}
	all = slices.DeleteFunc(all, func(rs protocol.RoutedShare) bool {
		_, owner := s.roster.find(rs.Owner)
		_, holder := s.roster.find(rs.Holder)
		return !owner || !holder || rs.Owner == rs.Holder
	})
	slices.SortFunc(all, func(a, b protocol.RoutedShare) int {
		return cmp.Or(cmp.Compare(a.Holder, b.Holder), cmp.Compare(a.Owner, b.Owner))
	})
	byHolder := make([][]protocol.RoutedShare, len(s.roster))
	for p, a := range s.roster {
		n := 0
		for n < len(all) && all[n].Holder == a.ID {
			n++
		}
		byHolder[p], all = all[:n:n], all[n:]
	}
	commits := make([]protocol.ShareCommitments, 0, len(s.members))
	for _, m := range s.members {
		if m.commits.B != nil {
			commits = append(commits, m.commits)
		}
	}
	return byHolder, commits, nil
}

// RegisterComplaint records a holder's report that an owner's share
// bundle failed verification. The owner is blamed and excluded when the
// mask set freezes; complaints after the freeze are rejected — a device
// whose masked input may already be in the online sum cannot be evicted.
func (s *Server) RegisterComplaint(c protocol.SecAggComplaint) error {
	if err := s.phase.expect(sharing, "RegisterComplaint"); err != nil {
		return err
	}
	if _, ok := s.roster.find(c.By); !ok {
		return fmt.Errorf("secagg: complaint from unknown device %d", c.By)
	}
	p, ok := s.roster.find(c.Against)
	if !ok {
		return fmt.Errorf("secagg: complaint against unknown device %d", c.Against)
	}
	obsComplaints.Inc()
	if m := &s.members[p]; m.blamed == "" {
		m.blamed = fmt.Sprintf("complaint from %d: %s", c.By, c.Reason)
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
	ids := make([]int, 0, len(s.members))
	for p := range s.members {
		m := &s.members[p]
		if m.maskSet = m.commits.B != nil && m.blamed == ""; m.maskSet {
			ids = append(ids, s.roster[p].ID)
		}
	}
	if len(ids) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d unblamed share-complete devices, need ≥ %d", len(ids), s.cfg.T)
	}
	obsDropouts.Add(int64(len(s.roster) - len(ids)))
	s.phase = masking
	return append([]int(nil), ids...), nil
}

// Blamed returns the devices excluded or rejected so far, with reasons.
func (s *Server) Blamed() map[int]string {
	out := make(map[int]string)
	for p, m := range s.members {
		if m.blamed != "" {
			out[s.roster[p].ID] = m.blamed
		}
	}
	return out
}

// AddMasked accumulates a Round-2 masked input into the running sum. The
// server never stores the individual vector beyond this addition.
func (s *Server) AddMasked(id int, y []uint64) error {
	if err := s.phase.expect(masking, "AddMasked"); err != nil {
		return err
	}
	p, ok := s.roster.find(id)
	if !ok {
		return fmt.Errorf("secagg: masked input from unknown device %d", id)
	}
	m := &s.members[p]
	if !m.maskSet {
		return fmt.Errorf("secagg: masked input from %d, which is not in the mask set (%s)", id, m.blamed)
	}
	if m.masked {
		return fmt.Errorf("secagg: duplicate masked input from %d", id)
	}
	if len(y) != s.cfg.VectorLen {
		return fmt.Errorf("secagg: masked input length %d from %d, want %d", len(y), id, s.cfg.VectorLen)
	}
	for i, w := range y {
		s.sum.vec[i] += w
	}
	m.masked = true
	return nil
}

// Survivors freezes and returns the set U2 of devices whose masked input
// arrived, sorted, for broadcast: from here no masked input joins the sum,
// and unmask responses are taken. The round can proceed only if |U2| ≥ T.
func (s *Server) Survivors() ([]int, error) {
	if err := s.phase.expect(masking, "Survivors"); err != nil {
		return nil, err
	}
	survivors := make([]int, 0, len(s.members))
	for p, m := range s.members {
		if m.masked {
			survivors = append(survivors, s.roster[p].ID)
		}
	}
	if len(survivors) < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d masked inputs, need ≥ %d", len(survivors), s.cfg.T)
	}
	n, t := len(s.roster), s.cfg.T
	block := make([]chunkedShare, n*t)
	for p := range s.members {
		s.members[p].revealed = block[p*t : p*t : (p+1)*t]
	}
	s.phase = unmasking
	return survivors, nil
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
func (s *Server) AddUnmaskResponse(r *protocol.SecAggUnmask) error {
	if err := s.phase.expect(unmasking, "AddUnmaskResponse"); err != nil {
		return err
	}
	idx, ok := s.roster.find(r.From)
	if !ok {
		return fmt.Errorf("secagg: unmask response from unknown device %d", r.From)
	}
	from := &s.members[idx]
	if from.unmasked {
		return fmt.Errorf("secagg: duplicate unmask response from %d", r.From)
	}
	if !from.maskSet {
		return fmt.Errorf("secagg: unmask response from %d, which is not in the mask set", r.From)
	}
	wantX := uint64(idx + 1)
	blame := func(format string, args ...any) error {
		err := fmt.Errorf("secagg: unmask response from %d: "+format, append([]any{r.From}, args...)...)
		from.blamed = err.Error()
		obsBlamed.Inc()
		return err
	}
	seen := make([]bool, len(s.roster)) // by owner position
	check := func(os protocol.OwnerShare, kind byte) error {
		p, ok := s.roster.find(os.Owner)
		if !ok {
			return blame("share for non-roster device %d", os.Owner)
		}
		owner := &s.members[p]
		if !owner.maskSet {
			return blame("share for %d, which is outside the mask set", os.Owner)
		}
		if seen[p] {
			return blame("duplicate share for owner %d", os.Owner)
		}
		seen[p] = true
		if os.Share.X != wantX {
			return blame("share for %d at evaluation point %d, want own point %d", os.Owner, os.Share.X, wantX)
		}
		if kind == kindB && !owner.masked {
			return blame("personal-seed share for dropped device %d", os.Owner)
		}
		if kind == kindSK && owner.masked {
			return blame("masking-key share for surviving device %d — refusing to unmask an individual", os.Owner)
		}
		// Every mask-set member registered its commitments.
		want := owner.commits.B[idx]
		if kind == kindSK {
			want = owner.commits.SK[idx]
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
	from.unmasked = true
	s.responded++
	for _, list := range [...][]protocol.OwnerShare{r.BShares, r.SKShares} {
		for _, os := range list {
			p, _ := s.roster.find(os.Owner)
			if m := &s.members[p]; len(m.revealed) < s.cfg.T {
				m.revealed = append(m.revealed, os.Share)
			}
		}
	}
	return nil
}

// Responses returns how many unmask responses were admitted.
func (s *Server) Responses() int { return s.responded }

// Sum finalizes the protocol: reconstructs personal seeds of survivors and
// masking keys of dropped mask-set devices, strips all masks from the
// running sum in place, and returns it: the aggregate Σ_{u∈U2} x_u in ring
// encoding (decodeInto converts to reals). Every share entering a
// reconstruction was verified on receipt, so a reconstruction can only fail
// for lack of shares — an attributed abort, never a silently wrong sum. That
// failure leaves the instance as it was, to take more responses; once every
// secret has its shares, Sum ends the instance, whatever the unmasking meets.
func (s *Server) Sum() ([]uint64, error) {
	if err := s.phase.expect(unmasking, "Sum"); err != nil {
		return nil, err
	}
	if s.responded < s.cfg.T {
		return nil, fmt.Errorf("secagg: only %d unmask responses, need ≥ %d", s.responded, s.cfg.T)
	}
	for p, m := range s.members {
		if m.maskSet && len(m.revealed) < s.cfg.T {
			return nil, fmt.Errorf("secagg: %d verified shares of %d's secret, need %d", len(m.revealed), s.roster[p].ID, s.cfg.T)
		}
	}
	s.phase = done

	// Each mask is applied as its secret is rebuilt, in roster order.
	// Survivors' personal masks PRG(b_u) are subtracted; the residual
	// pairwise masks of mask-set devices that dropped after the share round
	// are cancelled, an ECDH plus a PRG stream per survivor each, the
	// O(dropped × survivors) hot path. Devices excluded before masking
	// (outside the mask set) left no residuals, so their loss costs nothing.
	sum, buf := s.sum.vec, &s.sum.chunk
	scratch := make([]uint64, 2*s.cfg.T)
	for p, m := range s.members {
		u := s.roster[p].ID
		if !m.maskSet {
			continue
		}
		secret, err := reconstructBytes(m.revealed, scratch)
		if err != nil {
			return nil, fmt.Errorf("secagg: reconstruct secret of %d: %w", u, err)
		}
		if m.masked {
			seed := seedKey(secret[:])
			prgApply(seed[:], sum, true, buf)
			serverPRG.Inc()
			continue
		}
		sk, err := ecdh.X25519().NewPrivateKey(secret[:])
		if err != nil {
			return nil, fmt.Errorf("secagg: rebuild key of %d: %w", u, err)
		}
		for pv, w := range s.members {
			if !w.masked {
				continue
			}
			// Survivor v's masked input contains +PRG(s_vu) when v<u and
			// −PRG(s_vu) when v>u; cancel that residual.
			v := s.roster[pv].ID
			shared, err := sk.ECDH(s.roster[pv].SPK)
			if err != nil {
				return nil, fmt.Errorf("secagg: ecdh %d×%d: %w", u, v, err)
			}
			serverAgree.Inc()
			seed := pairwiseSeed(shared, 'p')
			prgApply(seed[:], sum, v < u, buf)
			serverPRG.Inc()
		}
	}
	return sum, nil
}
