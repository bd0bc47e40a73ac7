package main

import (
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/storage"
)

// benchStore is the storage.Store the benchmark hands the server. It is
// the commit boundary: a round is committed when PutCheckpoint returns, and
// onCommit fires there. Each commit lands in a fresh storage.Mem — the same
// clone-and-append the repo's store does — so only the newest checkpoint is
// retained and the live heap stays flat over a run instead of growing by
// one model per round.
type benchStore struct {
	// meta keeps the task registry and the per-round metric summaries.
	meta *storage.Mem

	mu     sync.Mutex
	latest *storage.Mem

	// onCommit runs on the committing actor's goroutine, so it must not
	// call back into the server.
	onCommit func(round int64, at time.Time)
	trace    *traceSwitch
}

func newBenchStore(initial *checkpoint.Checkpoint, trace *traceSwitch) (*benchStore, error) {
	s := &benchStore{meta: storage.NewMem(), latest: storage.NewMem(), trace: trace}
	return s, s.latest.PutCheckpoint(initial)
}

func (s *benchStore) PutCheckpoint(c *checkpoint.Checkpoint) error {
	start := time.Now()
	m := storage.NewMem()
	if err := m.PutCheckpoint(c); err != nil {
		return err
	}
	s.mu.Lock()
	s.latest = m
	s.mu.Unlock()
	end := time.Now()
	s.trace.span("storage.put_checkpoint", "", c.Round-1, start, end)
	if s.onCommit != nil {
		s.onCommit(c.Round, end)
	}
	return nil
}

func (s *benchStore) LatestCheckpoint(task string) (*checkpoint.Checkpoint, error) {
	start := time.Now()
	s.mu.Lock()
	m := s.latest
	s.mu.Unlock()
	c, err := m.LatestCheckpoint(task)
	if err == nil {
		s.trace.span("storage.latest_checkpoint", "", c.Round, start, time.Now())
	}
	return c, err
}

func (s *benchStore) PutMetrics(m *metrics.Materialized) error { return s.meta.PutMetrics(m) }
func (s *benchStore) Metrics(task string) ([]*metrics.Materialized, error) {
	return s.meta.Metrics(task)
}
func (s *benchStore) PutTaskSet(b []byte) error { return s.meta.PutTaskSet(b) }
func (s *benchStore) TaskSet() ([]byte, error)  { return s.meta.TaskSet() }
