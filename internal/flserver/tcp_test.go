package flserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pacing"
	"repro/internal/plan"
	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
)

// leasedFrames is how many frames this process has read into leased
// receive buffers so far.
func leasedFrames() int64 {
	return metrics.Default.Counter("fl_net_rx_buf_reused_total").Value() + metrics.Default.Counter("fl_net_rx_buf_alloc_total").Value()
}

// TestEndToEndOverTCP runs the full protocol over real TCP sockets: the
// same server and device code the cmd/flserver and cmd/fldevices binaries
// use. The model is wide enough (6147 parameters: a 6 KB quant8 report) that both
// the plan+checkpoint download and the report ride leased receive buffers,
// and released buffers are overwritten: a device.Client that trained from
// wire bytes it had already released, or a server fold that outlived its
// lease, would commit garbage instead of a model that classifies.
func TestEndToEndOverTCP(t *testing.T) {
	transport.PoisonReleasedForTest()
	leasesBefore := leasedFrames()
	const features = 2048
	fed, err := data.Blobs(data.BlobsConfig{
		Users: 12, ExamplesPer: 25, Features: features, Classes: 3, TestSize: 200, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem()
	p := testPlan(t, 6, false)
	p.Device.Model.Features = features
	srv, err := New(Config{
		Population: "pop", Plans: []*plan.Plan{p}, Store: store,
		Steering: pacing.New(time.Second), MaxRounds: 3, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	addr := l.Addr()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := device.NewMemStore("clicks", 1000, 0)
			if err != nil {
				t.Error(err)
				return
			}
			now := time.Now()
			for _, ex := range fed.Users[i] {
				s.Add(ex, now)
			}
			rt := device.NewRuntime(fmt.Sprintf("tcp-dev-%d", i), 3, nil, uint64(i))
			if err := rt.RegisterStore(s); err != nil {
				t.Error(err)
				return
			}
			client := &device.Client{ID: fmt.Sprintf("tcp-dev-%d", i), Population: "pop", Runtime: rt}
			for {
				select {
				case <-stop:
					return
				default:
				}
				conn, err := transport.DialTCP(addr)
				if err != nil {
					return // listener closed
				}
				_, _ = client.RunOnce(conn)
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	waitDone(t, srv, 90*time.Second)
	close(stop)
	wg.Wait()

	ckpt, err := store.LatestCheckpoint(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Round < 3 {
		t.Fatalf("TCP rounds committed = %d", ckpt.Round)
	}
	// Per round: six leased downloads and at least the four reports
	// (MinReportFraction 0.6) the commit waited for.
	if got := leasedFrames() - leasesBefore; got < 3*(6+4) {
		t.Fatalf("%d frames read into leased buffers over 3 rounds of 6 devices, want >= 30", got)
	}
	m, _ := p.Device.Model.Build()
	m.WriteParams(ckpt.Params)
	if acc := m.Evaluate(fed.Test).Accuracy; acc < 0.6 {
		t.Fatalf("TCP-trained accuracy = %v", acc)
	}
}

// waitDone waits on the wall clock, which a server on a socket runs on, for
// its rounds to be done.
func waitDone(t *testing.T, srv *Server, timeout time.Duration) {
	t.Helper()
	select {
	case <-srv.Done():
	case <-time.After(timeout):
		st, err := srv.Stats()
		t.Fatalf("server did not finish: %+v (stats err: %v)", st, err)
	}
}

// TestRefusedLeasedFramesEndTheirLease: a leased frame the server did not
// expect is refused without pinning its receive buffer — a 4 KiB
// ReportRequest as a connection's first frame, and a 2 KiB
// CheckinResponse-coded frame where a configured device's report belongs.
// Close never ends a lease, so only the refusing reader can: once the server
// has closed the connection and shut down, the loans gauge is back where it
// stood before the server started.
func TestRefusedLeasedFramesEndTheirLease(t *testing.T) {
	loans := metrics.Default.Gauge("fl_net_buf_loans")
	for name, configured := range map[string]bool{"first frame": false, "report": true} {
		t.Run(name, func(t *testing.T) {
			before := loans.Value()
			srv, err := New(Config{Population: "pop", Plans: []*plan.Plan{testPlan(t, 1, false)},
				Store: storage.NewMem(), Steering: pacing.New(time.Second), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			l, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)
			var conn transport.Conn
			for deadline := time.Now().Add(10 * time.Second); conn == nil; {
				if conn, err = transport.DialTCP(l.Addr()); err != nil {
					t.Fatal(err)
				}
				if !configured {
					break
				}
				_ = conn.Send(protocol.CheckinRequest{DeviceID: "d", Population: "pop", RuntimeVersion: 3})
				msg, err := conn.Recv()
				conn.Release()
				if resp, ok := msg.(protocol.CheckinResponse); err != nil || !ok || !resp.Accepted {
					conn.Close()
					if conn = nil; time.Now().After(deadline) {
						t.Fatalf("the device was never configured: %T %v", msg, err)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			var refused interface{} = protocol.ReportRequest{DeviceID: "d", TaskID: "t", Round: 1, Update: make([]byte, 4<<10)}
			if configured {
				refused = protocol.CheckinResponse{Accepted: true, Plan: make([]byte, 2<<10)}
			}
			if err := conn.Send(refused); err != nil {
				t.Fatal(err)
			}
			for err == nil { // the server's verdict, if any, then its close
				_, err = conn.Recv()
			}
			conn.Close()
			defer srv.Close()
			defer l.Close()
			// The round, left without a report, ends and returns its
			// checkpoint's loan; the refused frame's is the reader's to end.
			for deadline := time.Now().Add(10 * time.Second); loans.Value() != before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%v loans out after the server refused a leased frame, want %v", loans.Value(), before)
				}
			}
		})
	}
}
