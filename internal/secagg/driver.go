package secagg

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"repro/internal/actor"
	"repro/internal/protocol"
	"repro/internal/transport"
)

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

// Run executes one Secure Aggregation instance over one transport.Pipe per
// device on the caller's clock (the wall clock when none is given): each of
// the protocol's messages is a wire-table row that crosses the device's
// pipe. Run plays one Server and one Client per device, stepping every
// party on the caller's goroutine one phase at a time, each phase in roster
// order, so one masked vector serves the instance and blame comes out in
// one order. It exists for the Aggregator actor, the simulator and the
// experiments: the caller hands it per-group inputs and sum, cfg.VectorLen
// elements it owns, and receives the group sum decoded into sum, with
// attribution. Run allocates no vector of its own: the masked input and the
// server's running sum are pooled scratch that goes back wiped.
//
// link, when set, wraps each device's end of its pipe (nil: the pipe as it
// is). A device whose link closes or fails during a phase, or whose input
// is missing or malformed, drops out at that phase; a message the link
// loses, delays or damages is refused like any other, so a damaged shares
// frame is a poisoned deal and a damaged unmask frame a forged response.
// On abort (below-threshold churn at any phase) the returned error is
// attributed and the Result still carries Blamed and Responded so callers
// can propagate who and what sank the group.
func Run(cfg Config, inputs map[int][]float64, link func(id int, c transport.Conn) transport.Conn, sum []float64, clock ...actor.Clock) (*Result, error) {
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

	// One party per device, in id order, which is roster order.
	parties := make([]party, len(inputs))
	defer func() {
		for i := range parties {
			parties[i].close()
		}
	}()
	for i, id := range slices.Sorted(maps.Keys(inputs)) {
		c, err := NewClient(id, cfg)
		if err != nil {
			return nil, err
		}
		raw, end := transport.Pipe(clock...)
		parties[i] = party{c: c, dev: raw, raw: raw, srv: end}
		if link != nil {
			parties[i].dev = link(id, raw)
		}
	}
	find := func(id int) *party {
		i, _ := slices.BinarySearchFunc(parties, id, func(p party, id int) int { return cmp.Compare(p.c.id, id) })
		return &parties[i]
	}

	// Round 0: advertise keys.
	for i := range parties {
		p := &parties[i]
		p.say(p.c.Advertise())
		p.hear(protocol.PhaseAdvertise, func(msg any) {
			if a := msg.(protocol.SecAggAdvertise); a.ID == p.c.id {
				_ = srv.RegisterAdvert(a)
			}
		})
	}
	roster, err := srv.Roster()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before share round: %w", err))
	}
	mark(phaseAdvertise)

	// Round 1: the roster broadcast carries the keys parsed; each device
	// deals its shares with its commitment broadcast, and the server relays
	// them to each holder, whose complaints follow. A device whose input is
	// missing or malformed is lost before it deals.
	var broadcast any = protocol.SecAggRoster{Adverts: roster}
	allShares := make([]protocol.RoutedShare, 0, len(parties)*(len(roster)-1))
	for i := range parties {
		p := &parties[i]
		r, ok := p.told(broadcast).(protocol.SecAggRoster)
		if !ok || cfg.checkInput(inputs[p.c.id]) != nil || p.c.ReceiveRoster(r.Adverts) != nil {
			p.lose()
			continue
		}
		rs, sc, err := p.c.ShareKeys()
		if err != nil {
			return nil, err
		}
		p.say(protocol.SecAggShares{Shares: rs, Commitments: sc})
		p.hear(protocol.PhaseShare, func(msg any) {
			if m, ok := msg.(protocol.SecAggShares); ok && m.Commitments.Owner == p.c.id && srv.RegisterCommitments(m.Commitments) == nil {
				for _, rs := range m.Shares {
					if rs.Owner == p.c.id {
						allShares = append(allShares, rs)
					}
				}
			}
		})
	}
	byHolder, allCommits, err := srv.RouteShares(allShares)
	if err != nil {
		return nil, err
	}
	for pos, a := range roster {
		p := find(a.ID)
		r, ok := p.told(protocol.SecAggRouted{Shares: byHolder[pos], Commitments: allCommits}).(protocol.SecAggRouted)
		if !ok {
			continue
		}
		complaints, err := p.c.ReceiveShares(r.Commitments, r.Shares)
		if err != nil {
			return nil, err
		}
		for _, cm := range complaints {
			p.say(cm)
			p.hear(protocol.PhaseShare, func(msg any) {
				if cm, ok := msg.(protocol.SecAggComplaint); ok && cm.By == p.c.id {
					_ = srv.RegisterComplaint(cm)
				}
			})
		}
	}
	// The mask set: devices whose shares arrived intact and unblamed.
	maskIDs, err := srv.MaskSet()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before masked-input round: %w", err))
	}
	mark(phaseShare)

	// Round 2: masked inputs. One masked vector serves the whole instance:
	// the server folds it into its running sum before the next device masks.
	masked := lend(cfg.VectorLen)
	defer masked.release()
	broadcast = protocol.SecAggMaskSet{IDs: maskIDs}
	for _, id := range maskIDs {
		p := find(id)
		if m, ok := p.told(broadcast).(protocol.SecAggMaskSet); !ok || p.c.ReceiveMaskSet(m.IDs) != nil {
			p.lose()
			continue
		}
		y, err := p.c.maskInto(masked.vec, inputs[id], &masked.chunk)
		if err != nil {
			return nil, err
		}
		p.say(protocol.SecAggMasked{ID: id, Y: y})
		p.hear(protocol.PhaseMask, func(msg any) {
			if m := msg.(protocol.SecAggMasked); m.ID == id {
				_ = srv.AddMasked(id, m.Y)
			}
		})
	}
	survivors, err := srv.Survivors()
	if err != nil {
		return fail(fmt.Errorf("secagg: abort before unmask round: %w", err))
	}
	mark(phaseCommit)

	// Round 3: unmask. A rejected response is attributed in srv.Blamed; the
	// sum still reconstructs from the remaining honest responders.
	broadcast = protocol.SecAggSurvivors{IDs: survivors}
	for _, id := range survivors {
		p := find(id)
		m, ok := p.told(broadcast).(protocol.SecAggSurvivors)
		if !ok {
			continue
		}
		resp, err := p.c.Unmask(m.IDs)
		if err != nil {
			return nil, err
		}
		p.say(*resp)
		p.hear(protocol.PhaseUnmask, func(msg any) {
			if r := msg.(protocol.SecAggUnmask); r.From == id {
				_ = srv.AddUnmaskResponse(&r)
			}
		})
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

// party is one device of a Run: its client, its end of the pipe through
// the caller's link (dev) and as made (raw), and the server's end.
type party struct {
	c             *Client
	dev, raw, srv transport.Conn
	lost          bool // its link closed or failed: a dropout from then on
}

// phaseEnd marks the end of what one side sent in a phase, so what a link
// lost is found missing at the mark instead of stalling Run: the server's
// mark follows its message, the device's goes on its raw end, past the
// link. It is no wire message, and no link fault holds it back.
type phaseEnd struct{}

// say sends msg from the device over its link.
func (p *party) say(msg any) {
	if !p.lost && p.dev.Send(msg) != nil {
		p.lose()
	}
}

// hear hands take each message the device sent in phase up to its mark
// that the wire table allows from a device in phase.
func (p *party) hear(phase protocol.Phase, take func(msg any)) {
	if p.lost || p.raw.Send(phaseEnd{}) != nil {
		p.lose()
		return
	}
	for {
		msg, err := p.srv.Recv()
		if err != nil {
			p.lose()
			return
		}
		if _, end := msg.(phaseEnd); end {
			return
		}
		if _, err := protocol.Judge(msg, protocol.Device, phase); err == nil {
			take(msg)
		}
	}
}

// told sends the device msg from the server and returns the device's first
// read over its link up to the mark: msg, or nil once the device is lost.
//
// Each party's step starts here, and it starts by yielding the processor. A
// round reduces its secure groups at the same time, one goroutine each, so
// they share the processors a party step (about a millisecond) at a time
// and finish together. Unyielding, a group keeps its processor for the
// runtime's 10 ms preemption slice, and the last group's slice is the
// round's tail: 8 groups on 2 processors took 1.03 (1.01–1.07, p10–p90)
// times their CPU time over 2, against 1.01 (1.00–1.03) yielding.
func (p *party) told(msg any) any {
	runtime.Gosched()
	if p.lost || p.srv.Send(msg) != nil || p.srv.Send(phaseEnd{}) != nil {
		p.lose()
		return nil
	}
	var got any
	for {
		in, err := p.dev.Recv()
		if err != nil {
			p.lose()
			return nil
		}
		if _, end := in.(phaseEnd); end {
			return got
		}
		if got == nil {
			got = in
		}
	}
}

// lose drops the device out: its link closes.
func (p *party) lose() {
	if !p.lost {
		p.lost = true
		_ = p.dev.Close()
	}
}

// close ends the device's pipe and gives back what its client sealed.
func (p *party) close() {
	if p.c != nil {
		_ = p.dev.Close()
		_ = p.srv.Close()
		p.c.release()
	}
}
