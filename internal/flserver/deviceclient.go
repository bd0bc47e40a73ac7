package flserver

import (
	"fmt"
	"time"

	"repro/internal/actor"
	"repro/internal/analytics"
	"repro/internal/attest"
	"repro/internal/checkpoint"
	"repro/internal/device"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// NewLocalDataClient builds the device the harnesses drive: a fresh
// version-3 runtime whose example store storeName holds the given examples,
// wrapped in a DeviceClient for population.
func NewLocalDataClient(id, population, storeName string, examples []nn.Example, seed uint64) (*DeviceClient, error) {
	st, err := device.NewMemStore(storeName, 1000, 0)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	for _, ex := range examples {
		st.Add(ex, now)
	}
	rt := device.NewRuntime(id, 3, nil, seed)
	if err := rt.RegisterStore(st); err != nil {
		return nil, err
	}
	return &DeviceClient{ID: id, Population: population, Runtime: rt}, nil
}

// DeviceClient drives one device through the protocol: check in, and if
// selected download the plan and checkpoint, execute, and report. It is the
// client counterpart of Server, shared by the integration tests, the
// fldevices binary, and the examples.
type DeviceClient struct {
	ID         string
	Population string
	Runtime    *device.Runtime
	// Attestor mints attestation tokens; nil sends no token (fails when the
	// server verifies).
	Attestor *attest.Device
	// TrainDelay artificially slows this device down (straggler modelling
	// in tests; real devices are slow because of hardware).
	TrainDelay time.Duration
	// Clock is what the device tells the time and waits out TrainDelay on
	// (nil: the wall clock) — the server's clock when both are in one test.
	Clock actor.Clock
}

// Outcome describes one protocol interaction.
type Outcome struct {
	// Accepted is true when the device was selected into a round.
	Accepted bool
	// RetryAfter is the pace-steering hint on rejection.
	RetryAfter time.Duration
	RejectedBy string
	// ReportAccepted is true when the device's update was taken.
	ReportAccepted bool
	// Aborted is true when the server aborted the device (over-selection).
	Aborted bool
	// Result is the plan execution result when the device was selected.
	Result *device.Result
	// SessionShape is the analytics shape string of this session.
	SessionShape string
}

// RunOnce performs one full check-in/train/report interaction over conn.
// The connection is closed before returning.
func (d *DeviceClient) RunOnce(conn transport.Conn) (*Outcome, error) {
	defer conn.Close()
	clock := d.Clock
	if clock == nil {
		clock = actor.Wall
	}

	req := protocol.CheckinRequest{
		DeviceID:       d.ID,
		Population:     d.Population,
		RuntimeVersion: d.Runtime.Version,
	}
	if d.Attestor != nil {
		req.AttestationToken = d.Attestor.Mint(d.Population, clock.Now())
	}
	if err := conn.Send(req); err != nil {
		return nil, fmt.Errorf("device %s: checkin send: %w", d.ID, err)
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("device %s: checkin recv: %w", d.ID, err)
	}
	resp, ok := msg.(protocol.CheckinResponse)
	if !ok {
		return nil, fmt.Errorf("device %s: unexpected %T", d.ID, msg)
	}
	if !resp.Accepted {
		session := &analytics.Session{}
		session.Log(analytics.StateCheckin)
		return &Outcome{RetryAfter: resp.RetryAfter, RejectedBy: resp.Reason, SessionShape: session.Shape()}, nil
	}

	p, err := plan.UnmarshalDevice(resp.Plan)
	if err != nil {
		return nil, fmt.Errorf("device %s: plan: %w", d.ID, err)
	}
	global, err := checkpoint.Unmarshal(resp.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("device %s: checkpoint: %w", d.ID, err)
	}
	// Both decoders copy: resp's wire bytes are dead, not pinned by training.
	conn.Release()

	res, execErr := d.Runtime.Execute(p, global, clock.Now())
	out := &Outcome{Accepted: true, Result: res}
	session := res.Session

	switch {
	case execErr != nil:
		// Execution error: report the abort for accounting, shape ends '*'.
		_ = conn.Send(protocol.ReportRequest{DeviceID: d.ID, TaskID: p.ID, Round: global.Round, Aborted: true})
		out.SessionShape = session.Shape()
		return out, nil
	case res.Interrupted:
		// Eligibility lapsed: silently drop (the server sees a lost
		// device); shape ends '!'.
		out.SessionShape = session.Shape()
		return out, nil
	}

	if res.Update != nil {
		if d.TrainDelay > 0 {
			slept, _ := actor.After(clock, d.TrainDelay)
			<-slept
		}
		updBytes, err := res.Update.Marshal(p.UplinkEncoding())
		if err != nil {
			return nil, fmt.Errorf("device %s: marshal update: %w", d.ID, err)
		}
		session.Log(analytics.StateUploadStarted)
		report := protocol.ReportRequest{
			DeviceID: d.ID, TaskID: p.ID, Round: global.Round,
			Update: updBytes, Metrics: res.Metrics,
		}
		if err := conn.Send(report); err != nil {
			// The server may have aborted us (over-selection) and closed
			// the stream; a buffered Abort may still be readable.
			if msg, rerr := conn.Recv(); rerr == nil {
				if _, isAbort := msg.(protocol.Abort); isAbort {
					session.Log(analytics.StateUploadRejected)
					out.Aborted = true
					out.SessionShape = session.Shape()
					return out, nil
				}
			}
			session.Log(analytics.StateError)
			out.SessionShape = session.Shape()
			return out, nil
		}
		msg, err := conn.Recv()
		if err != nil {
			session.Log(analytics.StateError)
			out.SessionShape = session.Shape()
			return out, nil
		}
		switch r := msg.(type) {
		case protocol.ReportResponse:
			if r.Accepted {
				session.Log(analytics.StateUploadDone)
				out.ReportAccepted = true
			} else {
				session.Log(analytics.StateUploadRejected)
			}
		case protocol.Abort:
			session.Log(analytics.StateUploadRejected)
			out.Aborted = true
		default:
			session.Log(analytics.StateError)
		}
	} else {
		// Eval plan: report metrics only (Sec. 3: plans "can also encode
		// evaluation tasks").
		session.Log(analytics.StateUploadStarted)
		if err := conn.Send(protocol.ReportRequest{
			DeviceID: d.ID, TaskID: p.ID, Round: global.Round, Metrics: res.Metrics,
		}); err != nil {
			session.Log(analytics.StateError)
			out.SessionShape = session.Shape()
			return out, nil
		}
		if msg, err := conn.Recv(); err == nil {
			if r, ok := msg.(protocol.ReportResponse); ok && r.Accepted {
				session.Log(analytics.StateUploadDone)
				out.ReportAccepted = true
			} else {
				session.Log(analytics.StateUploadRejected)
			}
		} else {
			session.Log(analytics.StateError)
		}
	}
	out.SessionShape = session.Shape()
	return out, nil
}
