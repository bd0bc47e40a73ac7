// Package fedanalytics implements the Federated Analytics direction of
// Sec. 11 (Federated Computation): "monitor aggregate device statistics
// without logging raw device data to the cloud". A Query maps on-device
// examples to histogram bins; devices report only their local count vector,
// and the server aggregates sums — optionally through Secure Aggregation
// groups, so even per-device count vectors stay invisible.
//
// This reuses the paper's observation that the whole infrastructure only
// needs sums: the same aggregation path that carries model updates carries
// analytics vectors unchanged.
package fedanalytics

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/nn"
	"repro/internal/secagg"
)

// Query describes one aggregate statistic.
type Query struct {
	// Bins is the histogram size.
	Bins int
	// PerToken counts every token of sequence examples instead of one bin
	// per example.
	PerToken bool
	// BinOf maps an example to a bin in [0, Bins); return a negative value
	// to skip the example. Ignored when PerToken is set.
	BinOf func(ex nn.Example) int
}

// Validate reports whether the query is usable.
func (q Query) Validate() error {
	if q.Bins <= 0 {
		return fmt.Errorf("fedanalytics: Bins must be positive, got %d", q.Bins)
	}
	if !q.PerToken && q.BinOf == nil {
		return fmt.Errorf("fedanalytics: BinOf is required for per-example queries")
	}
	return nil
}

// LabelHistogram counts examples per class label.
func LabelHistogram(classes int) Query {
	return Query{Bins: classes, BinOf: func(ex nn.Example) int {
		if ex.Y < 0 || ex.Y >= classes {
			return -1
		}
		return ex.Y
	}}
}

// TokenHistogram counts token occurrences in sequence examples — the
// "which words do users type" query that motivates analytics without
// raw-data logging.
func TokenHistogram(vocab int) Query {
	return Query{Bins: vocab, PerToken: true}
}

// DeviceVector computes a device's local contribution for the query.
func DeviceVector(q Query, examples []nn.Example) ([]float64, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := make([]float64, q.Bins)
	for _, ex := range examples {
		if q.PerToken {
			for _, tok := range ex.Seq {
				if tok >= 0 && tok < q.Bins {
					out[tok]++
				}
			}
			continue
		}
		if bin := q.BinOf(ex); bin >= 0 && bin < q.Bins {
			out[bin]++
		}
	}
	return out, nil
}

// Aggregate sums per-device vectors. With secure=true the devices are
// partitioned into Secure Aggregation groups of at least groupSize, so the
// server only ever handles group sums (Sec. 6 applied to analytics).
func Aggregate(vectors map[int][]float64, bins int, secure bool, groupSize int) ([]float64, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("fedanalytics: bins must be positive")
	}
	for id, v := range vectors {
		if len(v) != bins {
			return nil, fmt.Errorf("fedanalytics: device %d vector has %d bins, want %d", id, len(v), bins)
		}
	}
	total := make([]float64, bins)
	if !secure {
		for _, v := range vectors {
			for i, x := range v {
				total[i] += x
			}
		}
		return total, nil
	}
	if groupSize < 2 {
		return nil, fmt.Errorf("fedanalytics: secure aggregation needs groupSize ≥ 2")
	}
	ids := make([]int, 0, len(vectors))
	for id := range vectors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) < groupSize {
		return nil, fmt.Errorf("fedanalytics: %d devices below secure group size %d", len(ids), groupSize)
	}
	groups := secagg.GroupSpans(len(ids), groupSize)
	// Groups are independent Secure Aggregation instances; run them
	// concurrently and fold each group sum into the total under a lock.
	// The semaphore bounds concurrent protocol *instances* (a large query
	// may have thousands of groups); each admitted instance still fans out
	// its own worker pools, so worst-case transients are
	// O(GOMAXPROCS × workers × bins), acceptable at histogram sizes.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, g := range groups {
		sem <- struct{}{} // acquire before spawning: bounds live goroutines too
		wg.Add(1)
		go func(g [2]int) {
			defer wg.Done()
			defer func() { <-sem }()
			group := ids[g[0]:g[1]]
			inputs := make(map[int][]float64, len(group))
			for i, id := range group {
				inputs[i+1] = vectors[id]
			}
			cfg := secagg.Config{N: len(group), T: len(group)/2 + 1, VectorLen: bins}
			res, err := secagg.RunSchedule(cfg, inputs, secagg.Schedule{})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("fedanalytics: group starting at %d: %w", g[0], err)
				}
				return
			}
			for i, x := range res.Sum {
				total[i] += x
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return total, nil
}
