package secagg

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/protocol"
)

// hostileHarness runs an honest instance — commitments, complaints, mask
// set and all — up to the survivor announcement, with dropAfterShare
// devices vanishing before the masked-input round. It returns the live
// server, the clients, and the survivor set, leaving the unmask round to
// the test so it can tamper with responses.
func hostileHarness(t *testing.T, cfg Config, n int, dropAfterShare []int) (*Server, map[int]*Client, []int) {
	t.Helper()
	srv, clients := maskedHarness(t, cfg, n, dropAfterShare)
	survivors, err := srv.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	return srv, clients, survivors
}

// maskedHarness is hostileHarness stopped before the survivor set is
// frozen: every client outside dropAfterShare has masked the input
// id·(1, 1, …) into the server's sum.
func maskedHarness(t *testing.T, cfg Config, n int, dropAfterShare []int) (*Server, map[int]*Client) {
	t.Helper()
	srv, clients, maskIDs := sharedHarness(t, cfg, n)
	for _, id := range maskIDs {
		if slices.Contains(dropAfterShare, id) {
			continue
		}
		y, err := clients[id].MaskedInput(idInput(cfg, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddMasked(id, y); err != nil {
			t.Fatal(err)
		}
	}
	return srv, clients
}

// sharedHarness runs an honest instance of n devices through the share
// round and returns it with the mask set every client has installed.
func sharedHarness(t *testing.T, cfg Config, n int) (*Server, map[int]*Client, []int) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[int]*Client, n)
	for id := 1; id <= n; id++ {
		c, err := NewClient(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		if err := srv.RegisterAdvert(c.Advertise()); err != nil {
			t.Fatal(err)
		}
	}
	roster, err := srv.Roster()
	if err != nil {
		t.Fatal(err)
	}
	var all []protocol.RoutedShare
	for _, c := range clients {
		if err := c.ReceiveRoster(roster); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		rs, sc, err := c.ShareKeys()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rs...)
		if err := srv.RegisterCommitments(sc); err != nil {
			t.Fatal(err)
		}
	}
	byHolder, commits, err := srv.RouteShares(all)
	if err != nil {
		t.Fatal(err)
	}
	for p, rs := range byHolder {
		holder := roster[p].ID
		// Every other device's bundle, none from itself: a client keeps
		// its own shares.
		if len(rs) != n-1 {
			t.Fatalf("holder %d was routed %d bundles, want n−1 = %d", holder, len(rs), n-1)
		}
		for _, b := range rs {
			if b.Owner == holder {
				t.Fatalf("holder %d was routed its own bundle", holder)
			}
		}
		complaints, err := clients[holder].ReceiveShares(commits, rs)
		if err != nil {
			t.Fatal(err)
		}
		if len(complaints) != 0 {
			t.Fatalf("honest shares drew complaints: %v", complaints)
		}
	}
	maskIDs, err := srv.MaskSet()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range maskIDs {
		if err := clients[id].ReceiveMaskSet(maskIDs); err != nil {
			t.Fatal(err)
		}
	}
	return srv, clients, maskIDs
}

// idInput is device id's input in the harnesses: id in every element.
func idInput(cfg Config, id int) []float64 {
	in := make([]float64, cfg.VectorLen)
	for i := range in {
		in[i] = float64(id)
	}
	return in
}

// expectIDSum takes the server's sum and checks it is exactly the sum of
// idInput over ids.
func expectIDSum(t *testing.T, srv *Server, ids []int) {
	t.Helper()
	sum, err := srv.Sum()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, id := range ids {
		want += id
	}
	for i, v := range decode(sum) {
		if v != float64(want) {
			t.Fatalf("sum[%d] = %v, want exactly %d (the sum of %v)", i, v, want, ids)
		}
	}
}

// TestServerRejectsHostileUnmaskResponses throws every forgery the Round-3
// surface admits at the server: each is rejected with an error naming the
// offending device, and after the dust settles the honest responders'
// shares still reconstruct the correct sum — hostile input can force an
// attributed rejection but never a wrong aggregate.
func TestServerRejectsHostileUnmaskResponses(t *testing.T) {
	cfg := Config{N: 6, T: 3, VectorLen: 2}
	srv, clients, survivors := hostileHarness(t, cfg, 6, []int{2})

	// A client unmasks once; each case tampers with a copy of its response.
	responses := map[int]*protocol.SecAggUnmask{}
	for _, id := range []int{1, 3, 4} {
		r, err := clients[id].Unmask(survivors)
		if err != nil {
			t.Fatal(err)
		}
		responses[id] = r
	}
	honest := func(id int) *protocol.SecAggUnmask {
		r := *responses[id]
		r.BShares = append([]protocol.OwnerShare(nil), r.BShares...)
		r.SKShares = append([]protocol.OwnerShare(nil), r.SKShares...)
		return &r
	}

	cases := []struct {
		name string
		resp func() *protocol.SecAggUnmask
		want string // substring the attributed error must carry
	}{
		{"unknown responder", func() *protocol.SecAggUnmask {
			r := honest(1)
			r.From = 99
			return r
		}, "unknown device 99"},
		{"duplicate owner in response", func() *protocol.SecAggUnmask {
			r := honest(1)
			r.BShares = append(r.BShares, r.BShares[0])
			return r
		}, "duplicate share for owner"},
		{"share for non-roster device", func() *protocol.SecAggUnmask {
			r := honest(1)
			r.BShares[0].Owner = 42
			return r
		}, "non-roster device 42"},
		{"stolen response (wrong evaluation point)", func() *protocol.SecAggUnmask {
			// Device 3 replays device 1's shares as its own: every share
			// sits at evaluation point 1, not 3.
			r := honest(1)
			r.From = 3
			return r
		}, "evaluation point"},
		{"forged share value", func() *protocol.SecAggUnmask {
			r := honest(1)
			r.BShares[0].Share.Ys[0]++
			return r
		}, "forged share"},
		{"forged blinder", func() *protocol.SecAggUnmask {
			r := honest(1)
			r.BShares[0].Blinder = [field.BlinderLen]byte{}
			return r
		}, "forged share"},
		{"masking-key share for a survivor", func() *protocol.SecAggUnmask {
			r := honest(1)
			os := r.SKShares[0] // dropped device 2's key share
			os.Owner = 4        // relabeled as survivor 4
			r.SKShares[0] = os
			r.BShares = nil // avoid tripping the duplicate-owner check first
			return r
		}, "refusing to unmask"},
		{"personal-seed share for a dropped device", func() *protocol.SecAggUnmask {
			r := honest(1)
			os := r.BShares[0]
			os.Owner = 2 // device 2 dropped; its seed must stay sealed
			r.BShares = append(r.BShares, os)
			return r
		}, "dropped device 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := srv.AddUnmaskResponse(tc.resp())
			if err == nil {
				t.Fatal("hostile response must be rejected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q must attribute via %q", err, tc.want)
			}
		})
	}
	if srv.Responses() != 0 {
		t.Fatalf("%d hostile responses admitted", srv.Responses())
	}

	// Sub-threshold reconstruction attempt: two honest responses < T.
	for _, id := range []int{1, 3} {
		if err := srv.AddUnmaskResponse(honest(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.AddUnmaskResponse(honest(1)); err == nil ||
		!strings.Contains(err.Error(), "duplicate unmask response") {
		t.Fatalf("duplicate response must be rejected, got %v", err)
	}
	if _, err := srv.Sum(); err == nil {
		t.Fatal("sub-threshold reconstruction must fail")
	}

	// One more honest responder reaches T and the sum comes out right —
	// none of the rejected forgeries above left a trace in the aggregate.
	if err := srv.AddUnmaskResponse(honest(4)); err != nil {
		t.Fatal(err)
	}
	sum, err := srv.Sum()
	if err != nil {
		t.Fatal(err)
	}
	got := decode(sum)
	want := 0.0
	for _, id := range survivors {
		want += float64(id)
	}
	for i, v := range got {
		if v != want {
			t.Fatalf("sum[%d] = %v, want exactly %v", i, v, want)
		}
	}
}

// TestMaskedWordsAreRingElements: a masked input is a vector of Z/2^64,
// every word of which the server folds as it is. A device that adds δ to
// word j of its masked vector moves decoded element j by exactly
// int64(δ)/2^20 and nothing else. The tampered words land at 2^61 or above,
// where no residue of GF(2^61−1) lies.
func TestMaskedWordsAreRingElements(t *testing.T) {
	cfg := Config{N: 4, T: 3, VectorLen: 4}
	srv, clients, maskIDs := sharedHarness(t, cfg, cfg.N)
	delta := []uint64{0, 3 << 60, 1<<64 - 1<<62, 0} // 0, 3·2^60, −2^62, 0
	for _, id := range maskIDs {
		y, err := clients[id].MaskedInput(idInput(cfg, id))
		if err != nil {
			t.Fatal(err)
		}
		if id == 2 {
			for j, d := range delta {
				y[j] += d
			}
		}
		if err := srv.AddMasked(id, y); err != nil {
			t.Fatal(err)
		}
	}
	survivors, err := srv.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range survivors {
		r, err := clients[id].Unmask(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddUnmaskResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := srv.Sum()
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range decode(sum) {
		if want := 10 + float64(int64(delta[j]))/FixedPointScale; v != want {
			t.Fatalf("sum[%d] = %v, want exactly %v: δ = %#x on word %d (full: %v)", j, v, want, delta[j], j, decode(sum))
		}
	}
}

// TestServerRejectsHostileCommitmentsAndComplaints hardens the Round-1
// broadcast surface: malformed or mistimed commitment sets and complaints
// naming strangers are rejected with attributed errors.
func TestServerRejectsHostileCommitmentsAndComplaints(t *testing.T) {
	cfg := Config{N: 3, T: 2, VectorLen: 1}
	srv, _ := NewServer(cfg)
	var clients []*Client
	for id := 1; id <= 3; id++ {
		c, _ := NewClient(id, cfg)
		clients = append(clients, c)
		if err := srv.RegisterAdvert(c.Advertise()); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.RegisterCommitments(protocol.ShareCommitments{Owner: 1}); err == nil {
		t.Fatal("commitments before roster freeze must be rejected")
	}
	roster, err := srv.Roster()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clients {
		if err := c.ReceiveRoster(roster); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.RegisterCommitments(protocol.ShareCommitments{Owner: 99}); err == nil {
		t.Fatal("commitments from unknown device must be rejected")
	}
	if err := srv.RegisterCommitments(protocol.ShareCommitments{Owner: 1}); err == nil {
		t.Fatal("short commitment set must be rejected")
	}
	if why, ok := srv.Blamed()[1]; !ok || !strings.Contains(why, "cover") {
		t.Fatalf("malformed commitments must blame the owner: %v", srv.Blamed())
	}
	if err := srv.RegisterComplaint(protocol.SecAggComplaint{By: 99, Against: 2}); err == nil {
		t.Fatal("complaint from unknown device must be rejected")
	}
	if err := srv.RegisterComplaint(protocol.SecAggComplaint{By: 2, Against: 99}); err == nil {
		t.Fatal("complaint against unknown device must be rejected")
	}

	// Devices 2 and 3 register honestly; blamed device 1 is excluded and
	// the mask set still freezes at T.
	for _, c := range clients[1:] {
		_, sc, err := c.ShareKeys()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.RegisterCommitments(sc); err != nil {
			t.Fatal(err)
		}
	}
	maskIDs, err := srv.MaskSet()
	if err != nil {
		t.Fatal(err)
	}
	if len(maskIDs) != 2 || maskIDs[0] != 2 || maskIDs[1] != 3 {
		t.Fatalf("mask set = %v, want [2 3]", maskIDs)
	}
	if err := srv.RegisterComplaint(protocol.SecAggComplaint{By: 2, Against: 3}); err == nil {
		t.Fatal("complaint after mask-set freeze must be rejected")
	}
	if err := srv.AddMasked(1, make([]uint64, 1)); err == nil ||
		!strings.Contains(err.Error(), "not in the mask set") {
		t.Fatalf("masked input from excluded device must be rejected: %v", err)
	}
}
