package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median averages the two middle values of an even count, as Python's
// statistics.median does.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// tailPercentile picks the highest of p90/p95/p99/p99.9 that still has at
// least ten samples beyond it, falling back to the median when n < 100.
func tailPercentile(n int) (p float64, label string) {
	p, label = 50, "p50"
	for _, c := range []struct {
		perMille int
		label    string
	}{{900, "p90"}, {950, "p95"}, {990, "p99"}, {999, "p99.9"}} {
		if n*(1000-c.perMille)/1000 >= 10 {
			p, label = float64(c.perMille)/10, c.label
		}
	}
	return p, label
}

// spread is the interquartile range of vals as a share of their median, the
// run-to-run noise measure the acceptance rule and -compare use. It needs
// at least two values (the exclusive quartile method of Python's
// statistics.quantiles(n=4)).
func spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vals)
	quartile := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		lo := min(max(int(pos), 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := quartile(2)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it that the children
// cover; overlapping children are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := int64(0), parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		covered += c.end - max(c.start, reach)
		reach = c.end
	}
	return parent.end - parent.start - covered
}
