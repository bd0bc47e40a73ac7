package device

import (
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/attest"
	"repro/internal/checkpoint"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// NewLocalDataClient builds the device the harnesses drive: a fresh
// version-3 runtime whose example store storeName holds the given examples,
// wrapped in a Client for population.
func NewLocalDataClient(id, population, storeName string, examples []nn.Example, seed uint64) (*Client, error) {
	st, err := NewMemStore(storeName, 1000, 0)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, ex := range examples {
		st.Add(ex, now)
	}
	rt := NewRuntime(id, 3, nil, seed)
	if err := rt.RegisterStore(st); err != nil {
		return nil, err
	}
	return &Client{ID: id, Population: population, Runtime: rt}, nil
}

// Client is one device's side of the protocol for one population; each
// Checkin or RunOnce is one session against a server.
type Client struct {
	ID         string
	Population string
	Runtime    *Runtime
	// Attestor mints attestation tokens; nil sends no token (fails when the
	// server verifies).
	Attestor *attest.Device
	// Clock is what the device tells the time on (nil: the wall clock) —
	// the server's clock when both are in one test.
	Clock actor.Clock
}

// Outcome describes one session.
type Outcome struct {
	// Accepted is true when the device was selected into a round.
	Accepted bool
	// RetryAfter is the pace-steering hint on rejection.
	RetryAfter time.Duration
	// ReportAccepted is true when the device's update was taken.
	ReportAccepted bool
	// Aborted is true when the server aborted the session: at check-in (the
	// round sealed first) or at report (over-selection).
	Aborted bool
	// SessionShape is the Table 1 shape string of this session.
	SessionShape string
}

// Session is one device session over one connection, an explicit phase
// machine (Sec. 2.2): checkin → configured → reported → done, or aborted
// by the server at check-in or at report. Every message that arrives is
// judged against the wire table for the session's phase, and each way a
// session ends logs its Table 1 state once.
type Session struct {
	Outcome
	c     *Client
	conn  transport.Conn
	clock actor.Clock
	phase protocol.Phase
	log   Log
	// resp is the configuration; its plan and checkpoint bytes stay on the
	// connection's receive buffer until training decodes them.
	resp protocol.CheckinResponse
}

// RunOnce performs one whole session over conn — check in, and if
// configured, train and report — and closes conn.
func (c *Client) RunOnce(conn transport.Conn) (*Outcome, error) {
	s, err := c.Checkin(conn)
	if err != nil || s.phase != protocol.PhaseConfigured {
		return &s.Outcome, err
	}
	return s.train()
}

// Checkin opens a session on conn and checks the device in. The session is
// then configured (Outcome.Accepted), holding the round's plan and global
// model for its report, or it has ended and closed conn.
func (c *Client) Checkin(conn transport.Conn) (*Session, error) {
	s := &Session{c: c, conn: conn, clock: c.Clock, phase: protocol.PhaseCheckin}
	s.clock = actor.OrWall(s.clock)
	req := protocol.CheckinRequest{DeviceID: c.ID, Population: c.Population, RuntimeVersion: c.Runtime.Version}
	if c.Attestor != nil {
		req.AttestationToken = c.Attestor.Mint(c.Population, s.clock.Now())
	}
	s.log.Add(StateCheckin)
	err := conn.Send(req)
	var msg interface{}
	if err == nil {
		msg, err = conn.Recv()
	}
	if err != nil {
		s.end(protocol.PhaseDone, StateError)
		return s, fmt.Errorf("device %s: checkin: %w", c.ID, err)
	}
	return s, s.take(msg)
}

// Report sends a configured session's report — update is a marshaled
// checkpoint, nil for an evaluation plan — and ends the session with the
// server's answer. A connection that fails after the report went out is a
// lost upload ('*'), not an error: the window it was meant for may have
// closed.
func (s *Session) Report(update []byte, metrics map[string]float64) (*Outcome, error) {
	if s.phase != protocol.PhaseConfigured {
		return &s.Outcome, fmt.Errorf("device %s: report in phase %s", s.c.ID, s.phase)
	}
	s.log.Add(StateUploadStarted)
	s.phase = protocol.PhaseReported
	// A failed send still reads what the server said: it may have aborted
	// the device and closed the stream behind a buffered Abort.
	_ = s.conn.Send(protocol.ReportRequest{DeviceID: s.c.ID, TaskID: s.resp.TaskID, Round: s.resp.Round,
		Update: update, Metrics: metrics})
	msg, err := s.conn.Recv()
	if err != nil {
		return s.end(protocol.PhaseDone, StateError), nil
	}
	return &s.Outcome, s.take(msg)
}

// take is the session's one receive step: it judges what arrived against
// the wire table for the current phase and moves the session on. A message
// the phase does not allow ends the session in error.
func (s *Session) take(msg interface{}) error {
	code, err := protocol.Judge(msg, protocol.Server, s.phase)
	if err != nil {
		s.end(protocol.PhaseDone, StateError)
		return fmt.Errorf("device %s: %w", s.c.ID, err)
	}
	switch code {
	case protocol.CodeAbort:
		rejected := StateUploadRejected
		if s.phase == protocol.PhaseCheckin {
			rejected = 0
		}
		s.end(protocol.PhaseAborted, rejected)
	case protocol.CodeCheckinResponse:
		m := msg.(protocol.CheckinResponse)
		if !m.Accepted {
			s.RetryAfter = m.RetryAfter
			s.end(protocol.PhaseDone, 0)
			return nil
		}
		s.resp, s.Accepted, s.phase = m, true, protocol.PhaseConfigured
		s.log.Add(StateDownloadedPlan)
	case protocol.CodeReportResponse:
		s.ReportAccepted = msg.(protocol.ReportResponse).Accepted
		if s.ReportAccepted {
			s.end(protocol.PhaseDone, StateUploadDone)
		} else {
			s.end(protocol.PhaseDone, StateUploadRejected)
		}
	}
	return nil
}

// train runs the configured plan on the downloaded global and reports: an
// update for a training plan, metrics alone for an evaluation plan (Sec. 3:
// plans "can also encode evaluation tasks").
func (s *Session) train() (*Outcome, error) {
	p, err := plan.UnmarshalDevice(s.resp.Plan)
	var global *checkpoint.Checkpoint
	if err == nil {
		p.ID = s.resp.TaskID // the device plan does not name its task
		global, err = checkpoint.Unmarshal(s.resp.Checkpoint)
	}
	if err != nil {
		return s.end(protocol.PhaseDone, StateError), fmt.Errorf("device %s: configuration: %w", s.c.ID, err)
	}
	// Both decoders copy: the wire bytes are dead, not pinned by training.
	s.conn.Release()
	res, err := s.c.Runtime.Execute(p, global, s.clock.Now(), &s.log)
	switch {
	case err != nil:
		// Report the abort, for the server's accounting.
		_ = s.conn.Send(protocol.ReportRequest{DeviceID: s.c.ID, TaskID: s.resp.TaskID, Round: s.resp.Round, Aborted: true})
		return s.end(protocol.PhaseDone, StateError), nil
	case res.Interrupted:
		// Eligibility lapsed: drop silently (the server sees a lost device).
		return s.end(protocol.PhaseDone, StateInterrupted), nil
	}
	var update []byte
	if res.Update != nil {
		if update, err = res.Update.Marshal(p.UplinkEncoding()); err != nil {
			return s.end(protocol.PhaseDone, StateError), fmt.Errorf("device %s: marshal update: %w", s.c.ID, err)
		}
	}
	return s.Report(update, res.Metrics)
}

// end moves the session to its last phase, logs the state it ends in (0:
// none), ends the lease on what it last received — Close never does — and
// closes the connection.
func (s *Session) end(phase protocol.Phase, state SessionState) *Outcome {
	s.phase, s.Aborted = phase, phase == protocol.PhaseAborted
	if state != 0 {
		s.log.Add(state)
	}
	s.SessionShape = s.log.Shape()
	s.conn.Release()
	_ = s.conn.Close()
	return &s.Outcome
}
