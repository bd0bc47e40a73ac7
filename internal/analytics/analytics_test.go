package analytics

import (
	"strings"
	"sync"
	"testing"
)

func TestSessionShapes(t *testing.T) {
	// The two examples from Sec. 5.
	s1 := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateError} {
		s1.Log(st)
	}
	if s1.Shape() != "-v[]+*" {
		t.Fatalf("shape = %q, want -v[]+*", s1.Shape())
	}
	s2 := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateError} {
		s2.Log(st)
	}
	if s2.Shape() != "-v[*" {
		t.Fatalf("shape = %q, want -v[*", s2.Shape())
	}
}

func TestTable1Shapes(t *testing.T) {
	// The three session shapes of Table 1.
	success := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadDone} {
		success.Log(st)
	}
	if success.Shape() != "-v[]+^" {
		t.Fatalf("success shape = %q", success.Shape())
	}
	rejected := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadRejected} {
		rejected.Log(st)
	}
	if rejected.Shape() != "-v[]+#" {
		t.Fatalf("rejected shape = %q", rejected.Shape())
	}
	interrupted := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateInterrupted} {
		interrupted.Log(st)
	}
	if interrupted.Shape() != "-v[!" {
		t.Fatalf("interrupted shape = %q", interrupted.Shape())
	}
}

func TestUnknownStateRune(t *testing.T) {
	if SessionState(99).Rune() != '?' {
		t.Fatal("unknown state should render '?'")
	}
}

func TestShapeCounterDistribution(t *testing.T) {
	c := NewShapeCounter()
	for i := 0; i < 75; i++ {
		c.Observe("-v[]+^")
	}
	for i := 0; i < 22; i++ {
		c.Observe("-v[]+#")
	}
	for i := 0; i < 3; i++ {
		c.Observe("-v[!")
	}
	dist := c.Distribution()
	if len(dist) != 3 {
		t.Fatalf("distribution rows = %d", len(dist))
	}
	if dist[0].Shape != "-v[]+^" || dist[0].Count != 75 || dist[0].Percent != 75 {
		t.Fatalf("top row: %+v", dist[0])
	}
	if dist[2].Shape != "-v[!" || dist[2].Percent != 3 {
		t.Fatalf("last row: %+v", dist[2])
	}
	if c.Total() != 100 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestShapeCounterConcurrent(t *testing.T) {
	c := NewShapeCounter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Observe("-v[]+^")
			}
		}()
	}
	wg.Wait()
	if c.Total() != 4000 {
		t.Fatalf("total = %d", c.Total())
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("devices_accepted", 5)
	c.Add("devices_accepted", 3)
	c.Add("devices_rejected", 1)
	if c.Get("devices_accepted") != 8 || c.Get("devices_rejected") != 1 {
		t.Fatalf("counters: %+v", c.Snapshot())
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	snap := c.Snapshot()
	c.Add("devices_accepted", 100)
	if snap["devices_accepted"] != 8 {
		t.Fatal("snapshot must be a copy")
	}
}

func TestTraffic(t *testing.T) {
	tr := NewTraffic()
	tr.AddDownload(1000)
	tr.AddDownload(500)
	tr.AddUpload(300)
	down, up := tr.Totals()
	if down != 1500 || up != 300 {
		t.Fatalf("traffic: %d / %d", down, up)
	}
}

func TestDashboardRender(t *testing.T) {
	counters := NewCounters()
	counters.Add("devices_accepted", 130)
	counters.Add("devices_rejected", 900)

	shapes := NewShapeCounter()
	for i := 0; i < 75; i++ {
		shapes.Observe("-v[]+^")
	}
	for i := 0; i < 25; i++ {
		shapes.Observe("-v[!")
	}

	traffic := NewTraffic()
	traffic.AddDownload(5_000_000)
	traffic.AddUpload(1_000_000)

	d := &Dashboard{
		Title:    "gboard/next-word",
		Counters: counters,
		Shapes:   shapes,
		Traffic:  traffic,
	}
	out := d.Render()
	for _, want := range []string{
		"gboard/next-word",
		"devices_accepted",
		"130",
		"-v[]+^",
		"75.0%",
		"5.0 MB down / 1.0 MB up",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
}

func TestDashboardEmptySections(t *testing.T) {
	d := &Dashboard{Title: "empty"}
	out := d.Render()
	if !strings.Contains(out, "empty") {
		t.Fatal("title missing")
	}
}
