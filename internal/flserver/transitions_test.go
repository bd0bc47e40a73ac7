package flserver

import (
	"strings"
	"testing"

	"repro/internal/actor"
	"repro/internal/device"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestIllegalTransitions generates one row per (session phase, type code)
// from the wire table and delivers that code in that phase to each side
// that receives in it: the device's session at check-in and after its
// report, the server's receive sites at check-in (CheckinRouter.handleConn)
// and once the device is configured (reportReader.read). A side refuses
// exactly what the table does not allow it from its peer — the device's
// session ends in error with a '*' in its shape, the server steers the
// connection away or drops it unanswered — and takes what it does allow.
func TestIllegalTransitions(t *testing.T) {
	zero := map[byte]interface{}{}
	for _, m := range []interface{}{protocol.CheckinRequest{}, protocol.CheckinResponse{}, protocol.ReportRequest{},
		protocol.ReportResponse{}, protocol.Abort{}, protocol.StripeSeal{}, protocol.RoundConfig{},
		protocol.RoundFinalize{}, protocol.RoundAbort{}, protocol.ShardHello{}, protocol.CheckinRate{},
		protocol.ActorEnvelope{}, protocol.Heartbeat{}, protocol.TelemetrySnapshot{}, protocol.SecAggAdvertise{},
		protocol.SecAggRoster{}, protocol.SecAggShares{}, protocol.SecAggRouted{}, protocol.SecAggComplaint{},
		protocol.SecAggMaskSet{}, protocol.SecAggMasked{}, protocol.SecAggSurvivors{}, protocol.SecAggUnmask{}} {
		code, _, _ := protocol.MarshalBinary(m)
		zero[code] = m
	}
	illegal := 0
	for code := byte(1); ; code++ {
		row, ok := protocol.Lookup(code)
		if !ok {
			break
		}
		msg, ok := zero[code]
		if !ok {
			t.Fatalf("no %s to deliver", row.Name)
		}
		for _, phase := range []protocol.Phase{protocol.PhaseCheckin, protocol.PhaseConfigured, protocol.PhaseReported} {
			legal := row.Phases&phase != 0
			if !legal {
				illegal++
			}
			t.Run(phase.String()+"/"+row.Name, func(t *testing.T) {
				if phase != protocol.PhaseConfigured {
					want := legal && row.Sender == protocol.Server
					if took, shape := deviceTakes(t, phase, msg); took != want {
						t.Errorf("the device's session took it: %v, want %v (shape %q)", took, want, shape)
					}
				}
				if phase != protocol.PhaseReported {
					want := legal && row.Sender == protocol.Device
					if took := serverTakes(phase, msg); took != want {
						t.Errorf("the server's receive site took it: %v, want %v", took, want)
					}
				}
			})
		}
	}
	if illegal != 3*23-6 {
		t.Fatalf("%d illegal (phase, code) pairs, want 63: the table's legal set changed", illegal)
	}
}

// deviceTakes opens a device session whose server answers with msg in the
// given phase, and reports whether the session took it: no error and no
// '*' in its shape.
func deviceTakes(t *testing.T, phase protocol.Phase, msg interface{}) (bool, string) {
	dev, srv := transport.Pipe()
	defer srv.Close()
	c := &device.Client{ID: "d", Population: "pop", Runtime: device.NewRuntime("d", 3, nil, 1)}
	if phase == protocol.PhaseReported {
		_ = srv.Send(protocol.CheckinResponse{Accepted: true, TaskID: "pop/t", Round: 1})
	}
	_ = srv.Send(msg)
	s, err := c.Checkin(dev)
	if phase == protocol.PhaseReported {
		if err != nil || !s.Accepted {
			t.Fatalf("not configured: %+v, %v", s.Outcome, err)
		}
		_, err = s.Report(nil, nil)
	}
	shape := s.SessionShape
	if (err != nil) != strings.HasSuffix(shape, "*") {
		t.Fatalf("error %v with shape %q: a refusal must end in '*', and only a refusal", err, shape)
	}
	return err == nil, shape
}

// serverTakes delivers msg to the server's receive site for phase and
// reports whether it took it: a check-in forwarded to the Selector as one,
// a report answered rather than dropped.
func serverTakes(phase protocol.Phase, msg interface{}) bool {
	dev, srv := transport.Pipe()
	defer dev.Close()
	self := inbox(make(chan actor.Message, 1)) // each site sends the round one message
	_ = dev.Send(msg)
	if phase == protocol.PhaseCheckin {
		(&CheckinRouter{selectors: []actor.Ref{self}}).handleConn(srv)
		_, ok := (<-self).(*session)
		return ok
	}
	(&reportReader{self: self, dim: 4}).read(&session{CheckinRequest: protocol.CheckinRequest{DeviceID: "d"}, conn: srv})
	_, err := dev.Recv()
	return err == nil
}

// inbox is an actor.Ref that keeps what it is sent.
type inbox chan actor.Message

func (b inbox) Name() string                 { return "inbox" }
func (b inbox) Send(msg actor.Message) error { b <- msg; return nil }
func (b inbox) Stop()                        {}
func (b inbox) Stopped() bool                { return false }
