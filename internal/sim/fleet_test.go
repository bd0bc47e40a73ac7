package sim

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// These tests hold the fleet run to the behaviour Sec. 9 reports of
// Google's fleet, read off the run's own samples, round traces, spans and
// counters (the experiments package reduces the same run to the figures).
// One run serves them all: a day of a fleet small enough that availability,
// not demand, limits the day's rounds.

// TestMain runs every fleet and training run with released buffers
// poisoned, so a reader that keeps leased bytes past its lease breaks a
// figure's shape or a lineage instead of reading stale data.
func TestMain(m *testing.M) {
	transport.PoisonReleasedForTest()
	os.Exit(m.Run())
}

var (
	fleetOnce sync.Once
	fleetRun  *FleetRun
	fleetErr  error
)

func testFleet(t *testing.T) *FleetRun {
	t.Helper()
	fleetOnce.Do(func() {
		fleetRun, fleetErr = RunFleet(FleetConfig{Seed: 1, Days: 1, Devices: 15000, Target: testTarget})
	})
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetRun
}

// hourOf is the hour of day a sample closes.
func hourOf(s Sample) int { return s.T.Add(-SampleEvery).Hour() }

func TestSimulationProducesRounds(t *testing.T) {
	run := testFleet(t)
	if want := int(24 * time.Hour / SampleEvery); len(run.Samples) != want {
		t.Fatalf("%d samples over the day, want %d", len(run.Samples), want)
	}
	// Rounds settle in order, and each commit advances the round number (a
	// failed attempt keeps the number of the round it retries).
	committed, last, settled := 0, int64(0), run.Start
	for _, r := range run.Rounds {
		if r.End.Before(r.Start) || r.End.Before(settled) {
			t.Fatalf("round %d (%v–%v) settled out of order, after %v", r.Round, r.Start, r.End, settled)
		}
		settled = r.End
		if !r.Committed {
			continue
		}
		if r.Round <= last {
			t.Fatalf("round %d committed after round %d", r.Round, last)
		}
		last = r.Round
		committed++
	}
	if committed < 50 {
		t.Fatalf("one day should commit many rounds, got %d", committed)
	}
}

// TestRunFleetRefusesAnEmptyFleet: a run with no day, device or goal count
// is an error, not a table of NaNs (flbench -exp fig6 -days 0 printed one).
func TestRunFleetRefusesAnEmptyFleet(t *testing.T) {
	for _, cfg := range []FleetConfig{
		{Days: 0, Devices: 100, Target: 4},
		{Days: 1, Devices: 0, Target: 4},
		{Days: 1, Devices: 100, Target: 0},
		{Days: -1, Devices: 100, Target: 4},
	} {
		if _, err := RunFleet(cfg); err == nil {
			t.Fatalf("RunFleet(%+v) ran", cfg)
		}
	}
}

func TestDiurnalParticipationOscillates(t *testing.T) {
	// Fig. 6: the devices connected to the server oscillate with the day.
	run := testFleet(t)
	var connected [24]float64
	var n [24]int
	for _, s := range run.Samples {
		connected[hourOf(s)] += float64(s.Participating + s.Waiting)
		n[hourOf(s)]++
	}
	mean := func(hours ...int) float64 {
		var sum float64
		var count int
		for _, h := range hours {
			sum += connected[h]
			count += n[h]
		}
		return sum / float64(count)
	}
	night := mean(1, 2) // availability peak
	day := mean(13, 14) // trough
	if night <= day {
		t.Fatalf("connected devices at night (%v) should exceed day (%v)", night, day)
	}
	if night/day < 2 {
		t.Fatalf("diurnal swing %vx, want clearly > 2x (paper: 4x)", night/day)
	}
}

func TestCompletionRateTracksAvailability(t *testing.T) {
	// Fig. 6 bottom: the round completion rate oscillates in sync with
	// device availability. Correlate the hourly series.
	run := testFleet(t)
	var avail, commits [24]float64
	var n [24]int
	for _, s := range run.Samples {
		avail[hourOf(s)] += s.Available
		n[hourOf(s)]++
	}
	for _, r := range run.Rounds {
		if r.Committed {
			commits[r.End.Hour()]++
		}
	}
	for h := range avail {
		avail[h] /= float64(n[h])
	}
	if corr := pearson(avail[:], commits[:]); corr < 0.3 {
		t.Fatalf("completion rate should correlate with availability, r=%v", corr)
	}
}

func TestSmallPopulationRoundsFailSometimes(t *testing.T) {
	// A tiny population cannot always assemble 100 devices.
	run, err := RunFleet(FleetConfig{Seed: 5, Days: 1, Devices: 150, Target: 100})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range run.Rounds {
		if !r.Committed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("a 150-device population should fail some 100-device rounds (%d rounds settled)", len(run.Rounds))
	}
}

func TestDropoutHigherByDay(t *testing.T) {
	// Fig. 7: per-round drop-out is higher during daytime.
	run := testFleet(t)
	var dayDrop, daySel, nightDrop, nightSel int
	for _, r := range run.Rounds {
		if !r.Committed {
			continue
		}
		selected := r.Reports + r.Aborted + r.Lost
		switch h := r.Start.Hour(); {
		case h >= 12 && h < 18:
			dayDrop += r.Lost
			daySel += selected
		case h < 6:
			nightDrop += r.Lost
			nightSel += selected
		}
	}
	if daySel == 0 || nightSel == 0 {
		t.Fatal("no rounds in one of the windows")
	}
	dayRate := float64(dayDrop) / float64(daySel)
	nightRate := float64(nightDrop) / float64(nightSel)
	if dayRate <= nightRate {
		t.Fatalf("day drop rate %v should exceed night %v", dayRate, nightRate)
	}
	// Paper band: 6%–10%.
	if nightRate < 0.03 || dayRate > 0.15 {
		t.Fatalf("drop rates outside plausible band: night %v day %v", nightRate, dayRate)
	}
}

func TestOverSelectionAbsorbsDropout(t *testing.T) {
	// With 130% over-selection and 6–10% drop-out, committed rounds
	// overwhelmingly reach the full goal count (Sec. 9).
	run := testFleet(t)
	full, committed := 0, 0
	for _, r := range run.Rounds {
		if r.Committed {
			committed++
			if r.Reports >= run.Plan.Server.TargetDevices {
				full++
			}
		}
	}
	if committed == 0 {
		t.Fatal("no committed rounds")
	}
	if frac := float64(full) / float64(committed); frac < 0.9 {
		t.Fatalf("only %v of committed rounds reached the goal count", frac)
	}
}

func TestParticipationCapped(t *testing.T) {
	// Fig. 8: device participation time is capped by the server.
	run := testFleet(t)
	spans := run.Spans.Snapshot()
	if cap := run.Plan.Server.ParticipationCap.Seconds(); spans.Max > cap+1e-9 {
		t.Fatalf("participation %vs exceeds cap %vs", spans.Max, cap)
	}
	// Round run time ≈ the long tail of participation time (the round
	// commits when the K-th device reports).
	rounds := metrics.NewSummary()
	for _, r := range run.Rounds {
		if r.Committed {
			rounds.ObserveDuration(r.End.Sub(r.Start))
		}
	}
	if p50 := rounds.Snapshot().P50; p50 <= spans.P50/4 {
		t.Fatalf("round time P50 %v implausibly small vs participation P50 %v", p50, spans.P50)
	}
}

func TestTrafficAsymmetry(t *testing.T) {
	// Fig. 9: download from the server dominates upload. Every configured
	// session downloads the device plan and the global model, uploading or
	// not; an upload is one update of the model's size; and over-selection
	// and drop-out leave sessions that download and never upload.
	run := testFleet(t)
	down := run.Metrics.Counter(metrics.NetTxBytes).Value()
	up := run.Metrics.Counter(metrics.NetRxBytes).Value()
	if down <= up {
		t.Fatalf("download %d should exceed upload %d", down, up)
	}
	dp, _ := run.Plan.MarshalDevice()
	global, err := run.Lineage[0].Marshal(run.Plan.DownlinkEncoding())
	if err != nil {
		t.Fatal(err)
	}
	// unfinished counts the sessions that started an upload the server did
	// not accept: a report that reaches an edge as its window closes is
	// refused, and no round counts it.
	var configured, unfinished int64
	for shape, n := range run.Metrics.CounterFamily(metrics.SessionShapes, "shape") {
		configured += n
		if strings.Contains(shape, "+") && !strings.HasSuffix(shape, "^") {
			unfinished += n
		}
	}
	if want := configured * int64(len(dp)+len(global)); down < want {
		t.Fatalf("download %d B, want ≥ %d configured sessions × (%d B plan + %d B model)", down, configured, len(dp), len(global))
	}
	// Every report a round counted is one update, which carries the round of
	// the global it trained on (the one before). The upload is those updates
	// plus a whole number of refused ones, at most one per unfinished session:
	// the links' bytes against the server's traces.
	var counted, countedBytes, small, large int64
	for _, r := range run.Rounds {
		u := run.Lineage[0].Clone()
		u.Round = r.Round - 1
		update, err := u.Marshal(run.Plan.UplinkEncoding())
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(update))
		if small == 0 || n < small {
			small = n
		}
		large = max(large, n)
		counted += int64(r.Reports)
		countedBytes += int64(r.Reports) * n
	}
	refused := up - countedBytes
	k := (refused + large - 1) / large // the fewest updates that many bytes can be
	if refused < 0 || k*small > refused || k > unfinished {
		t.Fatalf("upload %d B: %d B in the %d updates the rounds counted, and %d B that is not a whole number of at most %d refused %d- to %d-byte updates",
			up, countedBytes, counted, refused, unfinished, small, large)
	}
	uploads := counted + k
	// Each round admits SelectTarget devices for a goal of TargetDevices.
	s := run.Plan.Server
	if min := float64(s.SelectTarget()) / float64(s.TargetDevices); float64(configured) < min*float64(uploads) {
		t.Fatalf("%d sessions configured for %d uploads, want ≥ %.2f× as many (over-selection)", configured, uploads, min)
	}
}

func TestSessionShapeDistribution(t *testing.T) {
	// Table 1: successful sessions dominate, then rejected uploads, then
	// interruptions.
	run := testFleet(t)
	shapes := run.Metrics.CounterFamily(metrics.SessionShapes, "shape")
	var total, rejected, interrupted int64
	for shape, n := range shapes {
		total += n
		if n > shapes["-v[]+^"] {
			t.Fatalf("shape %q (%d) is more common than -v[]+^ (%d)", shape, n, shapes["-v[]+^"])
		}
		if strings.HasSuffix(shape, "#") {
			rejected += n
		}
		if strings.HasSuffix(shape, "!") {
			interrupted += n
		}
	}
	if total == 0 {
		t.Fatal("no sessions observed")
	}
	if pct := 100 * float64(shapes["-v[]+^"]) / float64(total); pct < 60 {
		t.Fatalf("success rate %v%%, want the large majority (paper: 75%%)", pct)
	}
	if rejected <= 0 || interrupted <= 0 {
		t.Fatalf("expected both rejected and interrupted sessions: %v", shapes)
	}
	if interrupted >= shapes["-v[]+^"] {
		t.Fatal("interruption should be a minority outcome")
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	num := sab - sa*sb/n
	den := math.Sqrt((saa - sa*sa/n) * (sbb - sb*sb/n))
	if den == 0 {
		return 0
	}
	return num / den
}
