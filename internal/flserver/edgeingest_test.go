package flserver

import (
	"math"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/fedavg"
	"repro/internal/pacing"
	"repro/internal/storage"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// serialReference recomputes a bench round's committed checkpoint the old
// way: decode every device update (through the same wire encoding, so
// quantization matches) and fold serially into one Accumulator.
func serialReference(t *testing.T, devices, dim int, enc checkpoint.Encoding) *fedavg.Accumulator {
	t.Helper()
	acc := fedavg.NewAccumulator(dim)
	for i := 0; i < devices; i++ {
		u := &checkpoint.Checkpoint{TaskName: "bench/roundtput", Weight: float64(1 + i%3),
			Params: make(tensor.Vector, dim)}
		for j := range u.Params {
			u.Params[j] = float64(i+1) * (float64(j%7)*0.25 - 0.5)
		}
		b, err := u.Marshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := checkpoint.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Add(&fedavg.Update{Delta: decoded.Params, Weight: decoded.Weight}); err != nil {
			t.Fatal(err)
		}
	}
	return acc
}

// TestEdgeAccumulationMatchesSerial: the striped decode-and-accumulate
// ingest must commit the same checkpoint as the old serial per-device fold,
// within floating-point summation-order tolerance, over both transports and
// both link encodings. Every TCP frame — the download and each report — is
// just over the 1 KiB from which frames are leased (dim 256 in float64, dim
// 2048 in Quant8, whose download is Quant8 too), so released buffers are
// poisoned: a fold that outlived its small lease would break the closed form.
func TestEdgeAccumulationMatchesSerial(t *testing.T) {
	transport.PoisonReleasedForTest()
	const devices = 48
	for _, tc := range []struct {
		name string
		tcp  bool
		enc  checkpoint.Encoding
		dim  int
	}{
		{"mem/float64", false, checkpoint.EncodingFloat64, 256},
		{"mem/quant8", false, checkpoint.EncodingQuant8, 2048},
		{"tcp/float64", true, checkpoint.EncodingFloat64, 256},
		{"tcp/quant8", true, checkpoint.EncodingQuant8, 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dim := tc.dim
			leasesBefore := leasedFrames()
			st, err := runBenchRound(benchRoundConfig{
				Devices: devices, Dim: dim, TCP: tc.tcp, Encoding: tc.enc, DistinctUpdates: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every download is leased, and every report.
			want := int64(0)
			if tc.tcp {
				want = 2 * devices
			}
			if got := leasedFrames() - leasesBefore; got < want {
				t.Fatalf("%d frames read into leased buffers, want >= %d", got, want)
			}
			if st.Completed != devices || st.Committed == nil {
				t.Fatalf("completed %d/%d, committed %v", st.Completed, devices, st.Committed)
			}
			ref := serialReference(t, devices, dim, tc.enc)
			if math.Abs(st.Committed.Weight-ref.Weight()) > 1e-9 {
				t.Fatalf("committed weight %v, want %v", st.Committed.Weight, ref.Weight())
			}
			avg, err := ref.Average()
			if err != nil {
				t.Fatal(err)
			}
			// The round applies avg onto a zero global, so committed params
			// must equal the reference average — stripes only change the
			// summation ORDER, which shows up at the few-ulp level.
			for i := range avg {
				if math.Abs(st.Committed.Params[i]-avg[i]) > 1e-9 {
					t.Fatalf("param %d: committed %v, serial %v", i, st.Committed.Params[i], avg[i])
				}
			}
		})
	}
}

// TestSecureRoundsReusePooledInputsWithoutAliasing: two sequential Secure
// Aggregation rounds share the update-buffer pool; the second round's
// reuse of the first round's released buffers must neither corrupt the
// first round's committed checkpoint (which would betray an alias from the
// secagg path into a pooled buffer) nor perturb the second's sum. The
// secure sum carries fixed-point quantization, hence the looser tolerance.
// CI runs this package under -race, which additionally catches any
// unsynchronized reuse.
func TestSecureRoundsReusePooledInputsWithoutAliasing(t *testing.T) {
	const devices, dim = 16, 64
	ref := serialReference(t, devices, dim, checkpoint.EncodingFloat64)
	refAvg, err := ref.Average()
	if err != nil {
		t.Fatal(err)
	}
	check := func(st benchRoundResult, what string) {
		t.Helper()
		if st.Completed != devices || st.Committed == nil {
			t.Fatalf("%s: completed %d/%d", what, st.Completed, devices)
		}
		if math.Abs(st.Committed.Weight-ref.Weight()) > 1e-3 {
			t.Fatalf("%s: weight %v, want %v", what, st.Committed.Weight, ref.Weight())
		}
		for i := range refAvg {
			if math.Abs(st.Committed.Params[i]-refAvg[i]) > 1e-3 {
				t.Fatalf("%s: param %d = %v, want %v", what, i, st.Committed.Params[i], refAvg[i])
			}
		}
	}
	first, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, Secure: true, DistinctUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(first, "first round")
	snapshot := first.Committed.Params.Clone()

	second, err := runBenchRound(benchRoundConfig{
		Devices: devices, Dim: dim, Secure: true, DistinctUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	check(second, "second round (pooled buffers reused)")
	for i := range snapshot {
		if first.Committed.Params[i] != snapshot[i] {
			t.Fatalf("first round's committed checkpoint mutated by buffer reuse at %d", i)
		}
	}
}

// TestLiveEstimateOpensMinDevicesGate: a task gated by MinDevices far above
// the static PopulationEstimate must still run once the Selector layer's
// observed check-in rates push the live estimate past the gate — the
// static config value alone would gate it forever.
func TestLiveEstimateOpensMinDevicesGate(t *testing.T) {
	fed, err := data.Blobs(data.BlobsConfig{
		Users: 16, ExamplesPer: 20, Features: 4, Classes: 3, TestSize: 10, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewMem()
	p := testPlan(t, 4, false)
	// Static estimate 10 ≪ MinDevices 100: under static estimation this
	// task would never schedule. RoundPeriod 10 minutes makes MeanWait
	// large, so even a modest observed check-in rate implies a population
	// of thousands.
	r := runServer(t, Config{
		Population: "pop", Store: store,
		Steering:           pacing.New(10 * time.Minute),
		PopulationEstimate: 10,
		MaxRounds:          1, Seed: 31,
	})
	if err := r.srv.SubmitTask(p, tasks.Policy{MinDevices: 100}); err != nil {
		t.Fatal(err)
	}
	fl := newFleet(t, 16, fed, 3)
	fl.run(r, r.dial)
	r.waitDone(t)
	fl.halt()

	st := stats(t, r.srv)
	if st.RoundsCompleted < 1 {
		t.Fatalf("gated task never ran: %+v", st)
	}
}
