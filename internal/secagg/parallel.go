package secagg

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/field"
)

// workers returns the degree of parallelism for protocol hot paths: one
// worker per scheduler proc, never more than one per task.
func workers(tasks int) int {
	w := runtime.GOMAXPROCS(0)
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runWorkers drains n tasks on w workers and returns the first error. With
// one worker it runs inline, adding nothing to the serial path. Otherwise
// tasks are pulled from a shared atomic counter so uneven task costs (an
// ECDH here, a cache hit there) still balance; an error stops the other
// workers at their next pull.
func runWorkers(w, n int, body func(worker, task int) error) error {
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := body(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next int64
		wg   sync.WaitGroup
	)
	errs := make([]error, w)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := body(k, i); err != nil {
					errs[k] = err
					atomic.StoreInt64(&next, int64(n)) // stop the other workers
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallelFor runs fn(0..n-1) across the worker pool and returns the first
// error.
func parallelFor(n int, fn func(i int) error) error {
	return runWorkers(workers(n), n, func(_, i int) error { return fn(i) })
}

// maskScratch is what one mask worker owns while it expands: the keystream
// chunk prgApply streams through and, for every worker but the first, a
// private partial vector; an instance also takes one for each of its two
// vectors, the masked input and the server's running sum (lend). Scratch
// is pooled package-wide, so clients and servers of successive instances
// reuse it; it goes back wiped, so no keystream, partial mask sum or masked
// vector outlives its user.
type maskScratch struct {
	chunk prgChunk
	vec   []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(maskScratch) }}

// lend takes a pooled scratch whose vec is n zero elements.
func lend(n int) *maskScratch {
	s := scratchPool.Get().(*maskScratch)
	if cap(s.vec) < n {
		s.vec = make([]uint64, n)
	}
	s.vec = s.vec[:n] // zero: pooled wiped
	return s
}

// release wipes s, all of its vec's capacity too, and pools it.
func (s *maskScratch) release() {
	clear(s.chunk[:])
	clear(s.vec[:cap(s.vec)])
	scratchPool.Put(s)
}

// parallelMasks applies n mask expansions into dst. The first worker folds
// straight into dst; every other worker accumulates into a private partial
// vector in GF(2^61−1) — apply adds or subtracts its masks into the
// accumulator it is handed, through the chunk it is handed — and the
// partials are merged into dst once at the end, so workers never contend on
// dst and the transient memory is O((workers−1) × len), not O(n × len).
// Field addition is exact, so the merge order changes no bit.
func parallelMasks(dst []uint64, n int, apply func(i int, acc []uint64, buf *prgChunk) error) error {
	w := workers(n)
	scratch := make([]*maskScratch, w)
	for k := range scratch {
		scratch[k] = lend(len(dst) * min(k, 1)) // worker 0 folds into dst
		defer scratch[k].release()              // at return, when every worker is done
	}
	err := runWorkers(w, n, func(k, i int) error {
		acc := dst
		if k > 0 {
			acc = scratch[k].vec
		}
		return apply(i, acc, &scratch[k].chunk)
	})
	if err != nil {
		return err
	}
	for _, s := range scratch[1:] {
		field.AddVec(dst, dst, s.vec)
	}
	return nil
}
