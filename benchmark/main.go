// Command benchmark is the round benchmark: it runs one named workload of
// closed-loop stub devices against the FL server's public surface, prints
// every end-to-end metric by name and unit, checks the committed model
// against its closed form, and — with -trace 1 — records boundary spans and
// replays each layer the round crosses. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one gated end-to-end metric. BENCHMARK.json repeats this
// table (a test keeps the two in step); -compare reads the bounds here.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.10},
	{"payload_bytes_per_round", "B", "lower", 0.01},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// stamp names the host, the build and the inputs a result was taken with.
type stamp struct {
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Time       string         `json:"time"`
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

// record is one run as written by -out: the stamp, the gated metrics, the
// ungated diagnostics and per-layer numbers, and the sample counts behind
// each percentile.
type record struct {
	Stamp       stamp          `json:"stamp"`
	Correct     bool           `json:"correct"`
	Error       string         `json:"error,omitempty"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	EndToEnd    metricSet      `json:"end_to_end"`
	Diagnostics metricSet      `json:"diagnostics"`
	PerLayer    metricSet      `json:"per_layer,omitempty"`
	Samples     map[string]int `json:"samples"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "-"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Uint64("seed", 1, "seed for payload values, shard homing and check-in jitter")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and replays the layers; the last line then carries the per-layer metrics")
	out := flag.String("out", "", "append the full result record to this file as one JSON line")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if any metric is worse")
	list := flag.Bool("list", false, "list the workloads")
	flag.Parse()

	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.Name, w.Why)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Sprintf("unknown workload %q (try -list)", *name))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	if w.TCP {
		// Both ends of every stub connection, the listeners, and sockets
		// lingering in close.
		if err := raiseFDLimit(uint64(4*w.Stubs + 256)); err != nil {
			fatal(err.Error())
		}
	}
	rec := record{
		Stamp: stamp{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(), Time: time.Now().UTC().Format(time.RFC3339), Workload: w.Name, Seed: *seed,
			Seconds: *seconds, Trace: *trace != 0, Params: w.params()},
		EndToEnd: metricSet{}, Diagnostics: metricSet{}, Samples: map[string]int{},
	}
	window := time.Duration(*seconds * float64(time.Second))
	var err error
	if *trace != 0 {
		err = runTraced(w, *seed, window, *traceOut, &rec)
	} else {
		err = runPlain(w, *seed, window, &rec)
	}
	rec.Correct = err == nil && rec.Failed == 0
	if err != nil {
		rec.Error = err.Error()
		// A run that cannot vouch for its output counts as all failed.
		rec.Attempted, rec.Failed = max(rec.Attempted, 1), max(rec.Attempted, 1)
	}
	rec.Diagnostics.set("failed_frac", float64(rec.Failed)/float64(max(rec.Attempted, 1)), "frac")

	printRecord(rec)
	if *out != "" {
		if werr := appendRecord(*out, rec); werr != nil {
			fatal(werr.Error())
		}
	}
	gated := rec.EndToEnd
	if *trace != 0 {
		gated = rec.PerLayer
	}
	line, _ := json.Marshal(map[string]any{"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": gated})
	fmt.Println(string(line))
	if !rec.Correct {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", rec.Error)
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

// runPlain is the end-to-end run: tracing off, the workload set up
// setupRepeats times (setup_s is the median), the last set-up measured.
func runPlain(w workload, seed uint64, d time.Duration, rec *record) error {
	var setups []float64
	var e *env
	for i := 0; i < setupRepeats; i++ {
		var s float64
		var err error
		if e, s, err = setUp(w, seed); err != nil {
			return err
		}
		setups = append(setups, s)
		if i < setupRepeats-1 {
			if _, err := e.finish(); err != nil {
				return err
			}
		}
	}
	first, last, err := e.measure(d)
	fin, ferr := e.finish()
	if err != nil {
		return err
	}
	win := e.window(first, last)
	win.report(rec, fin)
	rec.EndToEnd.set("setup_s", median(setups), "s")
	rec.Samples["setup_s"] = len(setups)
	return ferr
}

// final is what an env's teardown and correctness gate found.
type final struct {
	failedRounds int
	// upstreamPerRound is the coordinator's shard→coordinator bytes per
	// committed round (zero without shards).
	upstreamPerRound float64
	driverSelfMs     float64
}

// finish stops the env and runs the correctness gate on what it committed.
func (e *env) finish() (final, error) {
	failedRounds, upstream, err := e.close()
	n := e.commitCount()
	fin := final{failedRounds: failedRounds}
	if n > 0 {
		fin.upstreamPerRound = float64(upstream) / float64(n)
		fin.driverSelfMs = float64(e.gen.pay.buildNanos.Load()) / 1e6 / float64(n)
	}
	if err != nil {
		return fin, fmt.Errorf("server stats: %w", err)
	}
	if err := e.gen.firstErr(); err != nil {
		return fin, err
	}
	e.mu.Lock()
	err = e.err
	e.mu.Unlock()
	if err != nil {
		return fin, err
	}
	got, err := e.store.LatestCheckpoint(taskID)
	if err != nil {
		return fin, err
	}
	if got.Round != int64(n) {
		return fin, fmt.Errorf("store holds round %d after %d commits", got.Round, n)
	}
	return fin, verifyModel(got, e.seed, e.w.Dim, e.w.Encoding)
}

// report turns a window into the named end-to-end metrics and diagnostics.
func (win window) report(rec *record, fin final) {
	m, d := rec.EndToEnd, rec.Diagnostics
	m.set("rounds_per_s", win.roundsPerS, "1/s")
	m.set("round_ms_p50", percentile(win.interval, 50), "ms")
	m.set("cpu_ms_per_round", win.cpuMs, "ms")
	m.set("alloc_mb_per_round", win.allocMB, "MB")
	m.set("payload_bytes_per_round", win.down+win.up+fin.upstreamPerRound, "B")

	if p, label := tailPercentile(len(win.interval)); p > 50 {
		d.set("round_ms_"+label, percentile(win.interval, p), "ms")
	}
	// Device-observed report→ack latency did not repeat within a tenth
	// from run to run on any workload, so it is printed, not gated.
	d.set("report_ack_ms_p50", percentile(win.acks, 50), "ms")
	d.set("report_ack_ms_p99", percentile(win.acks, 99), "ms")
	d.set("payload_down_bytes_per_round", win.down, "B")
	d.set("payload_up_bytes_per_round", win.up, "B")
	d.set("upstream_bytes_per_round", fin.upstreamPerRound, "B")
	d.set("gen_rejects_per_round", win.rejects, "count")
	d.set("failed_sessions", float64(win.unacked), "count")
	d.set("failed_rounds", float64(fin.failedRounds), "count")
	d.set("driver.self_ms_per_round", fin.driverSelfMs, "ms")
	d.set("measured_rounds", float64(win.rounds), "count")
	d.set("measured_s", win.seconds, "s")

	rec.Samples["round_ms"] = len(win.interval)
	rec.Samples["report_ack_ms"] = len(win.acks)
	rec.Samples["measured_rounds"] = win.rounds
	rec.Attempted = win.sessions + win.rounds
	rec.Failed = win.unacked + fin.failedRounds
}

func printRecord(rec record) {
	s := rec.Stamp
	fmt.Printf("# %s seed=%d seconds=%g trace=%v | cpus=%d gomaxprocs=%d %s commit=%s\n",
		s.Workload, s.Seed, s.Seconds, s.Trace, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Commit)
	params, _ := json.Marshal(s.Params)
	fmt.Printf("# params %s\n", params)
	samples, _ := json.Marshal(rec.Samples)
	fmt.Printf("# samples %s\n", samples)
	for _, set := range []struct {
		title string
		m     metricSet
	}{{"end-to-end (gated)", rec.EndToEnd}, {"diagnostics (not gated)", rec.Diagnostics}, {"per-layer (traced run)", rec.PerLayer}} {
		if len(set.m) == 0 {
			continue
		}
		fmt.Printf("## %s\n", set.title)
		names := make([]string, 0, len(set.m))
		for name := range set.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-40s %16.6g %s\n", name, set.m[name].Value, set.m[name].Unit)
		}
	}
	fmt.Printf("## correct=%v attempted=%d failed=%d\n", rec.Correct, rec.Attempted, rec.Failed)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
