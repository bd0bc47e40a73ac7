// Package storage is the persistent storage behind the FL server: committed
// global model checkpoints and materialized round metrics (Sec. 7.4). Per
// the design, *nothing* reaches this layer until a round's aggregate is
// final (Sec. 4.2: "No information for a round is written to persistent
// storage until it is fully aggregated") — the aggregator actors enforce
// that; this package just stores what they commit.
package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
)

// Store persists committed round results.
type Store interface {
	// PutCheckpoint commits a global model checkpoint for a task. The store
	// may keep c as it is until the task's next PutCheckpoint returns; then
	// c's Params are recycled (DESIGN.md §5 lever 13). A store that keeps
	// older checkpoints keeps copies, every read of c ends before that put
	// returns, and a put that fails keeps nothing of c.
	PutCheckpoint(c *checkpoint.Checkpoint) error
	// LatestCheckpoint returns the newest committed checkpoint for a task,
	// or an error wrapping ErrNoCheckpoint when the task has committed none.
	LatestCheckpoint(task string) (*checkpoint.Checkpoint, error)
	// PutMetrics materializes a round's metric summaries.
	PutMetrics(m *metrics.Materialized) error
	// Metrics returns a task's last materialized metrics, the one entry a
	// store keeps per task like its checkpoint (none before the first put).
	Metrics(task string) ([]*metrics.Materialized, error)
	// PutTaskSet persists the serialized task registry of the store's
	// population (stores are per-population). The registry in memory is the
	// authority; the latest snapshot lets a restarted process resume it.
	PutTaskSet(b []byte) error
	// TaskSet returns the latest persisted task registry, or nil if none.
	TaskSet() ([]byte, error)
}

// ErrNoCheckpoint is the LatestCheckpoint error of a task with no lineage;
// any other means one exists that cannot be read (unreadable, old, foreign).
var ErrNoCheckpoint = errors.New("storage: no checkpoint")

// Mem is an in-memory Store for simulation and tests. It keeps each task's
// latest checkpoint only, shared with whoever committed it.
type Mem struct {
	mu          sync.Mutex
	checkpoints map[string]*checkpoint.Checkpoint
	metrics     map[string]*metrics.Materialized
	taskSet     []byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{
		checkpoints: make(map[string]*checkpoint.Checkpoint),
		metrics:     make(map[string]*metrics.Materialized),
	}
}

// PutCheckpoint implements Store.
func (s *Mem) PutCheckpoint(c *checkpoint.Checkpoint) error {
	if c.TaskName == "" {
		return fmt.Errorf("storage: checkpoint without task name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpoints[c.TaskName] = c
	return nil
}

// LatestCheckpoint implements Store.
func (s *Mem) LatestCheckpoint(task string) (*checkpoint.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.checkpoints[task]
	if c == nil {
		return nil, fmt.Errorf("%w for task %q", ErrNoCheckpoint, task)
	}
	return c.Clone(), nil
}

// PutMetrics implements Store.
func (s *Mem) PutMetrics(m *metrics.Materialized) error {
	if m.TaskName == "" {
		return fmt.Errorf("storage: metrics without task name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics[m.TaskName] = m
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
	return bytes.Clone(s.taskSet), nil
}

// Metrics implements Store.
func (s *Mem) Metrics(task string) ([]*metrics.Materialized, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.metrics[task]; m != nil {
		return []*metrics.Materialized{m}, nil
	}
	return nil, nil
}

// File is a file-backed Store: checkpoints are written as binary files
// under dir/<task>/round-<n>.ckpt. Metrics stay in memory (they are cheap
// and regenerable); checkpoints are the durable artifact. File also
// implements metrics.TraceStore, which callers type-assert: Store leaves it
// out so that other Stores need not implement it.
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

// sanitizeTask names a task's directory <task>: 16 bytes of the name's SHA-256
// in lowercase hex, so 32 bytes on any filesystem, case-insensitive ones too.
// A collision is refused: LatestCheckpoint checks the name stored inside.
func sanitizeTask(task string) string {
	h := sha256.Sum256([]byte(task))
	return hex.EncodeToString(h[:16])
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
	// ReadDir sorts (rounds are zero-padded); only a missing dir is no lineage.
	taskDir := filepath.Join(s.dir, sanitizeTask(task))
	entries, err := os.ReadDir(taskDir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var last string
	for _, e := range entries {
		if ok, _ := filepath.Match("round-*.ckpt", e.Name()); ok {
			last = e.Name()
		}
	}
	if last == "" {
		return nil, fmt.Errorf("%w for task %q", ErrNoCheckpoint, task)
	}
	b, err := os.ReadFile(filepath.Join(taskDir, last))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	c, err := checkpoint.Unmarshal(b)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", last, err)
	}
	if c.TaskName != task {
		return nil, fmt.Errorf("storage: %s holds task %q, not %q", taskDir, c.TaskName, task)
	}
	return c, nil
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
