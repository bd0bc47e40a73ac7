package secagg

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// Schedule injects fleet churn and adversarial behaviour into an in-process
// Secure Aggregation run, one knob per protocol phase boundary. Device ids
// listed here refer to keys of the inputs map.
type Schedule struct {
	// DropAdvertise devices vanish before Round 0: they never advertise
	// keys and never enter the roster.
	DropAdvertise []int
	// DropShareKeys devices advertise but vanish during Round 1: they
	// deliver no shares or commitments, so the mask set excludes them and
	// their loss costs nothing at unmask time.
	DropShareKeys []int
	// DropAfterShare devices deliver shares but vanish before Round 2:
	// the expensive recovery path — survivors reveal their masking-key
	// shares and the server reconstructs the residual pairwise masks.
	DropAfterShare []int
	// DropAfterMask devices send a masked input but never answer Round 3:
	// tolerated as long as ≥ T others answer.
	DropAfterMask []int
	// PoisonShare devices deal corrupted share bundles: every holder's
	// verification fails, the holders complain, and the device is blamed
	// and excluded from the mask set before masking.
	PoisonShare []int
	// ForgeUnmask devices answer Round 3 with forged shares: the server's
	// commitment check rejects the whole response, blames the responder,
	// and reconstructs from the remaining responders.
	ForgeUnmask []int
}

// Result is the outcome of one Secure Aggregation instance.
type Result struct {
	// Sum is the decoded aggregate over Survivors, in the caller's vector
	// (nil on abort).
	Sum []float64
	// Survivors are the devices whose inputs are included in Sum.
	Survivors []int
	// Blamed maps excluded or rejected devices to an attributed reason.
	// Populated on abort too, so callers can report who sank the group.
	Blamed map[int]string
	// Responded is the number of admitted unmask responses.
	Responded int
	// Phases maps protocol phase name (advertise, share, commit, unmask)
	// to wall time spent in it, for the round tracer. On abort it holds
	// the phases that completed before the failure.
	Phases map[string]time.Duration
}

// Secure Aggregation phase names as recorded in Result.Phases. They match
// the metrics round-trace secagg span names minus the "secagg_" prefix.
const (
	phaseAdvertise = "advertise"
	phaseShare     = "share"
	phaseCommit    = "commit"
	phaseUnmask    = "unmask"
)

// Run executes a complete Secure Aggregation instance in-process under an
// injected churn schedule, stepping one Server and one Client per device
// through their phases, each phase in roster order. It exists for the
// Aggregator actor, the simulator and the experiments: the caller hands it
// per-group inputs, a Schedule and sum, cfg.VectorLen elements it owns, and
// receives the group sum decoded into sum, with attribution. Run allocates
// no vector of its own: the masked input and the server's running sum are
// pooled scratch that goes back wiped.
//
// On abort (below-threshold churn at any phase) the returned error is
// attributed and the Result still carries Blamed and Responded so callers
// can propagate who and what sank the group. The instance never stalls: a
// device is either on a drop list or participates to completion.
func Run(cfg Config, inputs map[int][]float64, sched Schedule, sum []float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sum) != cfg.VectorLen {
		return nil, fmt.Errorf("secagg: sum of %d elements, want %d", len(sum), cfg.VectorLen)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.release()
	res := &Result{Blamed: map[int]string{}, Phases: map[string]time.Duration{}}
	last := time.Now()
	mark := func(phase string) {
		now := time.Now()
		res.Phases[phase] = now.Sub(last)
		last = now
	}
	fail := func(err error) (*Result, error) {
		res.Blamed = srv.Blamed()
		res.Responded = srv.Responses()
		return res, err
	}

	// Round 0: advertise keys, in id order, so clients[p] is the client at
	// roster position p. DropAdvertise devices never show up.
	clients := make([]*Client, 0, len(inputs))
	for _, id := range slices.Sorted(maps.Keys(inputs)) {
		if slices.Contains(sched.DropAdvertise, id) {
			continue
		}
		c, err := NewClient(id, cfg)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		if err := srv.RegisterAdvert(c.Advertise()); err != nil {
			return nil, err
		}
	}
	roster, err := srv.Roster()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before share round: %w", err))
	}
	for _, c := range clients {
		if err := c.ReceiveRoster(roster); err != nil {
			return nil, err
		}
	}
	mark(phaseAdvertise)

	// Round 1: share keys + broadcast commitments. DropShareKeys devices
	// vanish here; PoisonShare devices deal corrupted bundles.
	allShares := make([]RoutedShare, 0, len(clients)*(len(roster)-1))
	for _, c := range clients {
		if slices.Contains(sched.DropShareKeys, c.id) {
			continue
		}
		c.poison = slices.Contains(sched.PoisonShare, c.id)
		rs, sc, err := c.ShareKeys()
		defer c.release()
		if err != nil {
			return nil, err
		}
		allShares = append(allShares, rs...)
		if err := srv.RegisterCommitments(sc); err != nil {
			return nil, err
		}
	}
	byHolder, allCommits, err := srv.RouteShares(allShares)
	if err != nil {
		return nil, err
	}
	for p, c := range clients {
		if slices.Contains(sched.DropShareKeys, c.id) {
			continue
		}
		complaints, err := c.ReceiveShares(allCommits, byHolder[p])
		if err != nil {
			return nil, err
		}
		for _, cm := range complaints {
			if err := srv.RegisterComplaint(cm); err != nil {
				return nil, err
			}
		}
	}

	// Round 1.5: freeze and broadcast the mask set — devices whose shares
	// arrived intact and unblamed. Below-threshold churn aborts here.
	maskIDs, err := srv.MaskSet()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before masked-input round: %w", err))
	}
	client := func(id int) *Client { p, _ := srv.roster.find(id); return clients[p] }
	for _, id := range maskIDs {
		if err := client(id).ReceiveMaskSet(maskIDs); err != nil {
			return nil, err
		}
	}
	mark(phaseShare)

	// Round 2: masked inputs. DropAfterShare devices — and devices whose
	// input is missing or malformed — vanish here rather than stalling or
	// aborting the group. One masked vector serves the whole instance: the
	// server folds it into its running sum before the next device masks.
	masked := lend(cfg.VectorLen)
	defer masked.release()
	for _, id := range maskIDs {
		in := inputs[id]
		if slices.Contains(sched.DropAfterShare, id) || len(in) != cfg.VectorLen {
			continue
		}
		y, err := client(id).maskInto(masked.vec, in)
		if err != nil {
			return nil, err
		}
		if err := srv.AddMasked(id, y); err != nil {
			return nil, err
		}
	}
	survivors, err := srv.Survivors()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before unmask round: %w", err))
	}
	mark(phaseCommit)

	// Round 3: unmask. DropAfterMask devices vanish; ForgeUnmask devices
	// send forged shares, get blamed, and are skipped — the sum still
	// reconstructs from the remaining honest responders.
	for _, id := range survivors {
		if slices.Contains(sched.DropAfterMask, id) {
			continue
		}
		c := client(id)
		c.forge = slices.Contains(sched.ForgeUnmask, id)
		resp, err := c.Unmask(survivors)
		if err != nil {
			return nil, err
		}
		// A rejection is attributed in srv.Blamed; the rest carry on.
		_ = srv.AddUnmaskResponse(resp)
	}

	y, err := srv.Sum()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort at reconstruction: %w", err))
	}
	res.Sum = decodeInto(sum, y)
	res.Survivors = survivors
	res.Blamed = srv.Blamed()
	res.Responded = srv.Responses()
	mark(phaseUnmask)
	return res, nil
}
