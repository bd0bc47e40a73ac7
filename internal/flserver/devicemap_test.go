package flserver

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/actor"
	"repro/internal/checkpoint"
	"repro/internal/protocol"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// TestDevicesMapHandsOn: an edge's round takes the devices map its
// predecessor released, empty and holding none of its sessions, which the
// collector then frees; and the round holding the map still closes every
// one of its devices however it ends: its actor stopped, abandoned, or its
// actor system shut down.
func TestDevicesMapHandsOn(t *testing.T) {
	for _, teardown := range []string{"stop", "abandon", "shutdown"} {
		t.Run(teardown, func(t *testing.T) {
			clock := newWatchedClock()
			sys := actor.NewSystem(clock)
			defer sys.Shutdown()
			sel := spawnSelector(sys, "sel", 1, "pop")
			p := testPlan(t, 2, false)
			p.Server.SelectionTimeout, p.Server.ReportTimeout = time.Hour, time.Hour
			handoff := make(chan map[string]*session, 1)
			open := func(r int64) (*EdgeRound, actor.Ref) {
				er := newEdgeRound(EdgeRoundConfig{Population: "pop", Plan: p, Round: r, Dim: 4, Target: 2,
					Global:  &checkpoint.Checkpoint{TaskName: p.ID, Round: r, Params: make(tensor.Vector, 4)},
					devices: handoff}, []actor.Ref{sel}, nil)
				ref := sys.Spawn(fmt.Sprintf("edge-r%d", r), er)
				_ = ref.Send(msgEdgeStart{})
				return er, ref
			}
			// join configures two devices on a round and returns their ends.
			join := func(ref actor.Ref, r int64) (devs []*session, ends []transport.Conn) {
				for i := range 2 {
					srvEnd, devEnd := transport.Pipe(clock)
					d := &session{CheckinRequest: protocol.CheckinRequest{DeviceID: fmt.Sprintf("r%d-dev-%d", r, i), RuntimeVersion: 3}, conn: srvEnd}
					_ = ref.Send(msgDevices{Devices: []*session{d}})
					if msg, err := devEnd.Recv(); err != nil {
						t.Fatalf("round %d: %s got no configuration: %v", r, d.DeviceID, err)
					} else if resp, ok := msg.(protocol.CheckinResponse); !ok || !resp.Accepted {
						t.Fatalf("round %d: %s configured with %T %+v", r, d.DeviceID, msg, msg)
					}
					devs, ends = append(devs, d), append(ends, devEnd)
				}
				return devs, ends
			}
			// closed runs the rig until every end has seen its conn close,
			// an Abort or nothing before it.
			closed := func(ends []transport.Conn) {
				for _, e := range ends {
					for {
						if msg, err := e.Recv(); err != nil {
							break
						} else if _, ok := msg.(protocol.Abort); !ok {
							t.Fatalf("a device got %T before its conn closed", msg)
						}
					}
				}
			}

			er1, ref1 := open(1)
			first, idle := reflect.ValueOf(er1.devices).UnsafePointer(), clock.Goroutines()
			devs, ends := join(ref1, 1)
			_ = ref1.Send(msgAbandonRound{Reason: "superseded"})
			closed(ends)
			gone := weak.Make(devs[0])
			devs = nil
			clock.until(t, "round 1's map handed on and its readers gone", func() bool {
				return len(handoff) == 1 && clock.Goroutines() <= idle
			})
			runtime.GC()
			if gone.Value() != nil {
				t.Fatal("a released round's session outlives a collection")
			}

			er2, ref2 := open(2)
			if reflect.ValueOf(er2.devices).UnsafePointer() != first {
				t.Fatal("round 2 made a devices map of its own; want round 1's")
			}
			if n := len(er2.devices); n != 0 {
				t.Fatalf("round 2 took over a devices map holding %d sessions", n)
			}
			_, ends = join(ref2, 2)
			switch teardown {
			case "stop":
				ref2.Stop()
			case "abandon":
				_ = ref2.Send(msgAbandonRound{Reason: "test"})
			case "shutdown":
				sys.Shutdown()
			}
			closed(ends)
		})
	}
}
