// Package storage is the persistent storage behind the FL server: committed
// global model checkpoints and materialized round metrics (Sec. 7.4). Per
// the design, *nothing* reaches this layer until a round's aggregate is
// final (Sec. 4.2: "No information for a round is written to persistent
// storage until it is fully aggregated") — the aggregator actors enforce
// that; this package just stores what they commit.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
)

// Store persists committed round results.
type Store interface {
	// PutCheckpoint commits a global model checkpoint for a task.
	PutCheckpoint(c *checkpoint.Checkpoint) error
	// LatestCheckpoint returns the newest committed checkpoint for a task.
	LatestCheckpoint(task string) (*checkpoint.Checkpoint, error)
	// PutMetrics materializes a round's metric summaries.
	PutMetrics(m *metrics.Materialized) error
	// Metrics returns all materialized metrics for a task in round order.
	Metrics(task string) ([]*metrics.Materialized, error)
	// PutTaskSet persists the serialized FL task registry of the population
	// this store backs (stores are per-population). The registry in memory
	// is the authority; storage keeps only the latest snapshot so a
	// restarted process resumes its tasks — states, policies, stats.
	PutTaskSet(b []byte) error
	// TaskSet returns the latest persisted task registry, or nil when none
	// has been saved.
	TaskSet() ([]byte, error)
}

// File also implements metrics.TraceStore, persisting one round-trace record per
// round alongside the checkpoints. Trace storage is deliberately NOT part of
// the Store interface — callers type-assert — so custom Store
// implementations (tests, adapters) keep compiling.

// Mem is an in-memory Store for simulation and tests.
type Mem struct {
	mu          sync.Mutex
	checkpoints map[string][]*checkpoint.Checkpoint
	metrics     map[string][]*metrics.Materialized
	taskSet     []byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		checkpoints: make(map[string][]*checkpoint.Checkpoint),
		metrics:     make(map[string][]*metrics.Materialized),
	}
}

// PutCheckpoint implements Store.
func (s *Mem) PutCheckpoint(c *checkpoint.Checkpoint) error {
	if c.TaskName == "" {
		return fmt.Errorf("storage: checkpoint without task name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpoints[c.TaskName] = append(s.checkpoints[c.TaskName], c.Clone())
	return nil
}

// LatestCheckpoint implements Store.
func (s *Mem) LatestCheckpoint(task string) (*checkpoint.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.checkpoints[task]
	if len(cs) == 0 {
		return nil, fmt.Errorf("storage: no checkpoint for task %q", task)
	}
	return cs[len(cs)-1].Clone(), nil
}

// PutMetrics implements Store.
func (s *Mem) PutMetrics(m *metrics.Materialized) error {
	if m.TaskName == "" {
		return fmt.Errorf("storage: metrics without task name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics[m.TaskName] = append(s.metrics[m.TaskName], m)
	return nil
}

// PutTaskSet implements Store.
func (s *Mem) PutTaskSet(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.taskSet = append([]byte(nil), b...)
	return nil
}

// TaskSet implements Store.
func (s *Mem) TaskSet() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.taskSet == nil {
		return nil, nil
	}
	return append([]byte(nil), s.taskSet...), nil
}

// Metrics implements Store.
func (s *Mem) Metrics(task string) ([]*metrics.Materialized, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*metrics.Materialized(nil), s.metrics[task]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out, nil
}

// File is a file-backed Store: checkpoints are written as binary files
// under dir/<task>/round-<n>.ckpt. Metrics stay in memory (they are cheap
// and regenerable); checkpoints are the durable artifact.
type File struct {
	dir     string
	mem     *Mem // metrics + latest-lookup cache
	traceMu sync.Mutex
}

// NewFile creates (if needed) and opens a file-backed store rooted at dir.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &File{dir: dir, mem: NewMem()}, nil
}

func sanitizeTask(task string) string {
	out := make([]rune, 0, len(task))
	for _, r := range task {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// PutCheckpoint implements Store.
func (s *File) PutCheckpoint(c *checkpoint.Checkpoint) error {
	if c.TaskName == "" {
		return fmt.Errorf("storage: checkpoint without task name")
	}
	taskDir := filepath.Join(s.dir, sanitizeTask(c.TaskName))
	if err := os.MkdirAll(taskDir, 0o755); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	b, err := c.Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		return err
	}
	if err := writeDurable(filepath.Join(taskDir, fmt.Sprintf("round-%010d.ckpt", c.Round)), b); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return s.mem.PutCheckpoint(c)
}

// writeDurable replaces path with b so that a crash at any point leaves
// either the previous file or the complete new one, and a return means the
// new one survives power loss: temp file, fsync, rename, then fsync of the
// directory — the rename is only in the page cache until that.
func writeDurable(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LatestCheckpoint implements Store. It prefers the in-memory cache and
// falls back to scanning the directory (recovery after restart).
func (s *File) LatestCheckpoint(task string) (*checkpoint.Checkpoint, error) {
	if c, err := s.mem.LatestCheckpoint(task); err == nil {
		return c, nil
	}
	taskDir := filepath.Join(s.dir, sanitizeTask(task))
	entries, err := os.ReadDir(taskDir)
	if err != nil || len(entries) == 0 {
		return nil, fmt.Errorf("storage: no checkpoint for task %q", task)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".ckpt" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("storage: no checkpoint for task %q", task)
	}
	sort.Strings(names)
	b, err := os.ReadFile(filepath.Join(taskDir, names[len(names)-1]))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return checkpoint.Unmarshal(b)
}

// PutMetrics implements Store.
func (s *File) PutMetrics(m *metrics.Materialized) error { return s.mem.PutMetrics(m) }

// Metrics implements Store.
func (s *File) Metrics(task string) ([]*metrics.Materialized, error) { return s.mem.Metrics(task) }

// tracesFile is the append-only JSONL round-trace log, one line per round.
const tracesFile = "traces.jsonl"

// PutRoundTrace implements metrics.TraceStore: the record is appended as one
// JSONL line to dir/traces.jsonl.
func (s *File) PutRoundTrace(t metrics.RoundTrace) error {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, tracesFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	_, werr := f.Write(t.MarshalJSONL())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("storage: %w", werr)
	}
	return nil
}

// taskSetFile is where a File store keeps the task registry snapshot. The
// name predates the snapshot's binary format and stays, so that a directory
// written by a gob-era build is read and rejected, not silently skipped.
const taskSetFile = "tasks.gob"

// PutTaskSet implements Store: the snapshot is written atomically so a
// crash mid-write leaves the previous registry intact.
func (s *File) PutTaskSet(b []byte) error {
	if err := writeDurable(filepath.Join(s.dir, taskSetFile), b); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	return nil
}

// TaskSet implements Store.
func (s *File) TaskSet() ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, taskSetFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return b, nil
}
