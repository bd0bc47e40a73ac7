package secagg

import (
	"fmt"
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

func toSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// Result is the outcome of one Secure Aggregation instance.
type Result struct {
	// Sum is the decoded aggregate over Survivors (nil on abort).
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

// RunSchedule executes a complete Secure Aggregation instance in-process
// under an injected churn schedule, stepping one Server and one Client per
// device through their phases. It exists for the Aggregator actor, the
// simulator, and the benchmarks: the caller hands it per-group inputs plus
// a Schedule, and receives the group sum with attribution.
//
// On abort (below-threshold churn at any phase) the returned error is
// attributed and the Result still carries Blamed and Responded so callers
// can propagate who and what sank the group. The instance never stalls: a
// device is either on a drop list or participates to completion.
func RunSchedule(cfg Config, inputs map[int][]float64, sched Schedule) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dropAdv := toSet(sched.DropAdvertise)
	dropShareKeys := toSet(sched.DropShareKeys)
	dropShare := toSet(sched.DropAfterShare)
	dropMask := toSet(sched.DropAfterMask)
	poison := toSet(sched.PoisonShare)
	forge := toSet(sched.ForgeUnmask)

	srv, err := NewServer(cfg)
	if err != nil {
		return nil, err
	}
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

	// Round 0: advertise keys. DropAdvertise devices never show up.
	clients := make(map[int]*Client, len(inputs))
	for id := range inputs {
		if dropAdv[id] {
			continue
		}
		c, err := NewClient(id, cfg)
		if err != nil {
			return nil, err
		}
		clients[id] = c
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
	for id, c := range clients {
		if dropShareKeys[id] {
			continue
		}
		c.poison = poison[id]
		rs, sc, err := c.ShareKeys()
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
	for holder, c := range clients {
		if dropShareKeys[holder] {
			continue
		}
		complaints, err := c.ReceiveShares(allCommits, byHolder[holder])
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
	for _, id := range maskIDs {
		if err := clients[id].ReceiveMaskSet(maskIDs); err != nil {
			return nil, err
		}
	}
	mark(phaseShare)

	// Round 2: masked inputs. DropAfterShare devices — and devices whose
	// input is missing or malformed — vanish here rather than stalling or
	// aborting the group. One masked vector serves the whole instance: the
	// server folds it into its running sum before the next device masks.
	masked := make([]uint64, cfg.VectorLen)
	for _, id := range maskIDs {
		if dropShare[id] {
			continue
		}
		in := inputs[id]
		if len(in) != cfg.VectorLen {
			dropShare[id] = true
			continue
		}
		y, err := clients[id].maskInto(masked, in)
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
	for _, id := range maskIDs {
		if dropShare[id] || dropMask[id] {
			continue
		}
		c := clients[id]
		c.forge = forge[id]
		resp, err := c.Unmask(survivors)
		if err != nil {
			return nil, err
		}
		// A rejection is attributed in srv.Blamed; the rest carry on.
		_ = srv.AddUnmaskResponse(resp)
	}

	sum, err := srv.Sum()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort at reconstruction: %w", err))
	}
	res.Sum = Decode(sum)
	res.Survivors = survivors
	res.Blamed = srv.Blamed()
	res.Responded = srv.Responses()
	mark(phaseUnmask)
	return res, nil
}
