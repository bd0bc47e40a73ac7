package secagg

import (
	"slices"
	"strings"
	"testing"
)

// TestSurvivorSetFreezesWhenAnnounced: once the server announces U2, a
// late masked input cannot join it. Device 5 deals its shares and goes
// quiet; one survivor answers the unmask round with device 5's
// masking-key share; then device 5's masked input turns up. Admitting it
// would hand the server both device 5's masked input and a share of its
// masking key, and get every later honest responder blamed for revealing
// a survivor's key. It is refused, nobody is blamed, and the survivors'
// sum commits exactly.
func TestSurvivorSetFreezesWhenAnnounced(t *testing.T) {
	cfg := Config{N: 5, T: 3, VectorLen: 2}
	srv, clients, survivors := hostileHarness(t, cfg, 5, []int{5})
	unmask := func(id int) {
		t.Helper()
		r, err := clients[id].Unmask(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddUnmaskResponse(r); err != nil {
			t.Fatalf("honest responder %d refused: %v", id, err)
		}
	}
	unmask(1)
	late, err := clients[5].MaskedInput(idInput(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddMasked(5, late); err == nil {
		t.Fatal("a masked input after the survivor set was announced was accepted")
	}
	for _, id := range []int{2, 3, 4} {
		unmask(id)
	}
	if blamed := srv.Blamed(); len(blamed) != 0 {
		t.Fatalf("honest devices blamed: %v", blamed)
	}
	expectIDSum(t, srv, []int{1, 2, 3, 4})
}

// TestStepsRefusedOutOfPhase walks one instance through its legal
// sequence. At each phase every Client and Server step of another phase is
// called and must fail — one phase early, one late, or after the end;
// each one-shot step is called a second time by the same sender, and both
// vector inputs are offered at the wrong length. None of it may leave a
// trace: nobody is blamed and the instance still commits the exact sum.
func TestStepsRefusedOutOfPhase(t *testing.T) {
	const n = 4
	cfg := Config{N: n, T: 3, VectorLen: 3}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[int]*Client, n)
	for id := 1; id <= n; id++ {
		if clients[id], err = NewClient(id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	c := clients[1] // the probed client
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	refused := func(step string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s was accepted", step)
		}
	}

	// What the steps exchange, filled in as the instance proceeds; a step
	// called out of phase is refused before it reads its arguments.
	var (
		roster    []KeyAdvert
		shares    []RoutedShare
		byHolder  [][]RoutedShare // by holder position: device 1 at 0
		commits   []ShareCommitments
		own       ShareCommitments
		maskIDs   []int
		masked    []uint64
		survivors []int
		response  *UnmaskResponse
	)
	steps := []struct {
		name  string
		phase phase
		call  func() error
	}{
		{"Client.ReceiveRoster", advertising, func() error { return c.ReceiveRoster(roster) }},
		{"Client.ShareKeys", sharing, func() error { _, _, err := c.ShareKeys(); return err }},
		{"Client.ReceiveShares", dealt, func() error { _, err := c.ReceiveShares(commits, slices.Concat(byHolder...)); return err }},
		{"Client.ReceiveMaskSet", received, func() error { return c.ReceiveMaskSet(maskIDs) }},
		{"Client.MaskedInput", masking, func() error { _, err := c.MaskedInput(idInput(cfg, 1)); return err }},
		{"Client.Unmask", unmasking, func() error { _, err := c.Unmask(survivors); return err }},
		{"Server.RegisterAdvert", advertising, func() error { return srv.RegisterAdvert(c.Advertise()) }},
		{"Server.Roster", advertising, func() error { _, err := srv.Roster(); return err }},
		{"Server.RegisterCommitments", sharing, func() error { return srv.RegisterCommitments(own) }},
		{"Server.RouteShares", sharing, func() error { _, _, err := srv.RouteShares(shares); return err }},
		{"Server.RegisterComplaint", sharing, func() error { return srv.RegisterComplaint(Complaint{By: 2, Against: 1}) }},
		{"Server.MaskSet", sharing, func() error { _, err := srv.MaskSet(); return err }},
		{"Server.AddMasked", masking, func() error { return srv.AddMasked(1, masked) }},
		{"Server.Survivors", masking, func() error { _, err := srv.Survivors(); return err }},
		{"Server.AddUnmaskResponse", unmasking, func() error { return srv.AddUnmaskResponse(response) }},
		{"Server.Sum", unmasking, func() error { _, err := srv.Sum(); return err }},
	}
	outOfPhase := func(client, server phase) {
		t.Helper()
		if c.phase != client || srv.phase != server {
			t.Fatalf("client in phase %s, server in %s, want %s and %s",
				phaseNames[c.phase], phaseNames[srv.phase], phaseNames[client], phaseNames[server])
		}
		for _, s := range steps {
			at := server
			if strings.HasPrefix(s.name, "Client.") {
				at = client
			}
			if s.phase != at {
				refused(s.name+" in phase "+phaseNames[at], s.call())
			}
		}
	}

	outOfPhase(advertising, advertising)
	for id := 1; id <= n; id++ {
		must(srv.RegisterAdvert(clients[id].Advertise()))
	}
	refused("a second advert from device 1", srv.RegisterAdvert(c.Advertise()))
	roster, err = srv.Roster()
	must(err)
	for id := 1; id <= n; id++ {
		must(clients[id].ReceiveRoster(roster))
	}

	// In the share round the client's one-shot steps move it on while the
	// server stays put: a second ShareKeys is refused in dealt, a second
	// ReceiveShares in received.
	outOfPhase(sharing, sharing)
	for id := 1; id <= n; id++ {
		rs, sc, err := clients[id].ShareKeys()
		must(err)
		shares = append(shares, rs...)
		must(srv.RegisterCommitments(sc))
		if id == 1 {
			own = sc
		}
	}
	refused("second commitments from device 1", srv.RegisterCommitments(own))
	outOfPhase(dealt, sharing)
	byHolder, commits, err = srv.RouteShares(shares)
	must(err)
	for id := 1; id <= n; id++ {
		complaints, err := clients[id].ReceiveShares(commits, byHolder[id-1])
		must(err)
		if len(complaints) != 0 {
			t.Fatalf("honest shares drew complaints: %v", complaints)
		}
	}
	outOfPhase(received, sharing)
	maskIDs, err = srv.MaskSet()
	must(err)
	for id := 1; id <= n; id++ {
		must(clients[id].ReceiveMaskSet(maskIDs))
	}

	outOfPhase(masking, masking)
	_, err = c.MaskedInput(make([]float64, cfg.VectorLen-1))
	refused("a short input", err)
	refused("a long masked input", srv.AddMasked(1, make([]uint64, cfg.VectorLen+1)))
	for id := 1; id <= n; id++ {
		y, err := clients[id].MaskedInput(idInput(cfg, id))
		must(err)
		must(srv.AddMasked(id, y))
		if id == 1 {
			masked = y
		}
	}
	refused("a second masked input from device 1", srv.AddMasked(1, masked))
	survivors, err = srv.Survivors()
	must(err)

	outOfPhase(unmasking, unmasking)
	for id := 1; id <= n; id++ {
		r, err := clients[id].Unmask(survivors)
		must(err)
		must(srv.AddUnmaskResponse(r))
		if id == 1 {
			response = r
		}
	}
	refused("a second unmask response from device 1", srv.AddUnmaskResponse(response))
	expectIDSum(t, srv, survivors)

	outOfPhase(done, done)
	if blamed := srv.Blamed(); len(blamed) != 0 {
		t.Fatalf("refused steps blamed devices: %v", blamed)
	}
}
