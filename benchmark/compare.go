package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads the untraced records of a -out file, grouped by
// workload: traced runs carry the same names measured under tracing.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Stamp.Trace {
			out[r.Stamp.Workload] = append(out[r.Stamp.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric: "unresolved" when either
// side's run-to-run spread exceeds the bound (no conclusion can be drawn),
// "worse" when b's median is worse than a's by more than the bound.
func verdict(def metricDef, a, b []float64) (rel float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		rel = (mb - ma) / ma
	}
	worse := rel
	if def.Better == "higher" {
		worse = -rel
	}
	switch {
	case max(spread(a), spread(b)) > def.Bound:
		return rel, "unresolved"
	case worse > def.Bound:
		return rel, "worse"
	}
	return rel, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference, the bound and the verdict. It reports whether
// any metric is worse, or any compared run failed its correctness gate.
func compareFiles(out io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%-18s %-24s %14s %14s %8s %6s %8s %8s  %s\n", "workload", "metric", "median_a", "median_b", "diff", "bound", "spread_a", "spread_b", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, r := range append(append([]record(nil), ra...), rb...) {
			if !r.Correct {
				fmt.Fprintf(out, "%-18s run with seed %d failed its correctness gate: %s\n", w.Name, r.Stamp.Seed, r.Error)
				anyWorse = true
			}
		}
		for _, def := range endToEnd {
			va, vb := values(ra, def.Name), values(rb, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rel, v := verdict(def, va, vb)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(out, "%-18s %-24s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				w.Name, def.Name, median(va), median(vb), 100*rel, 100*def.Bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	return anyWorse, nil
}
