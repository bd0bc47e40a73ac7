package storage

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"weak"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func ckpt(task string, round int64) *checkpoint.Checkpoint {
	return &checkpoint.Checkpoint{
		TaskName: task, Round: round, Weight: 100,
		Params: tensor.Vector{float64(round), 2, 3},
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	if _, err := s.LatestCheckpoint("missing"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing task: %v, want ErrNoCheckpoint", err)
	}
	if err := s.PutCheckpoint(ckpt("", 1)); err == nil {
		t.Fatal("empty task name should error")
	}
	if err := s.PutCheckpoint(ckpt("task-a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(ckpt("task-a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint(ckpt("task-b", 9)); err != nil {
		t.Fatal(err)
	}
	got, err := s.LatestCheckpoint("task-a")
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 2 || got.Params[0] != 2 {
		t.Fatalf("latest = %+v", got)
	}
	gotB, _ := s.LatestCheckpoint("task-b")
	if gotB.Round != 9 {
		t.Fatalf("task-b latest = %+v", gotB)
	}

	// Metrics.
	if err := s.PutMetrics(&metrics.Materialized{TaskName: "task-a", Round: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutMetrics(&metrics.Materialized{TaskName: "task-a", Round: 2}); err != nil {
		t.Fatal(err)
	}
	ms, err := s.Metrics("task-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Round != 2 {
		t.Fatalf("metrics after rounds 1 and 2: %+v, want round 2's only", ms)
	}
	if ms, err := s.Metrics("task-b"); err != nil || len(ms) != 0 {
		t.Fatalf("metrics of a task with none: %+v, %v", ms, err)
	}
	if err := s.PutMetrics(&metrics.Materialized{}); err == nil {
		t.Fatal("metrics without task should error")
	}

	// Task registry snapshots: nil before any save, latest-wins after.
	if b, err := s.TaskSet(); err != nil || b != nil {
		t.Fatalf("unsaved task set = %v, %v", b, err)
	}
	if err := s.PutTaskSet([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTaskSet([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if b, err := s.TaskSet(); err != nil || string(b) != "v2" {
		t.Fatalf("task set = %q, %v", b, err)
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMem()) }

func TestFileStore(t *testing.T) {
	s, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

// TestMetricsKeepNoHistory: a long-running server's store holds each task's
// newest round of metrics, not one entry per committed round.
func TestMetricsKeepNoHistory(t *testing.T) {
	file, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": NewMem(), "file": file} {
		for round := int64(1); round <= 1000; round++ {
			for _, task := range []string{"a", "b"} {
				if err := s.PutMetrics(&metrics.Materialized{TaskName: task, Round: round}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, task := range []string{"a", "b"} {
			if ms, _ := s.Metrics(task); len(ms) != 1 || ms[0].Round != 1000 {
				t.Fatalf("%s: task %s after 1000 rounds holds %d entries (%+v), want round 1000's only", name, task, len(ms), ms)
			}
		}
		mem, _ := s.(*Mem)
		if f, ok := s.(*File); ok {
			mem = f.mem
		}
		if len(mem.metrics) != 2 {
			t.Fatalf("%s: %d tasks' metrics held, want 2", name, len(mem.metrics))
		}
	}
}

func TestMemStoreIsolation(t *testing.T) {
	// Put shares: the store keeps the committed checkpoint itself, which its
	// committer no longer changes. LatestCheckpoint hands out copies.
	s := NewMem()
	c := ckpt("t", 1)
	_ = s.PutCheckpoint(c)
	if s.checkpoints["t"] != c {
		t.Fatal("store must keep the committed checkpoint, not a copy")
	}
	got, _ := s.LatestCheckpoint("t")
	if &got.Params[0] == &c.Params[0] {
		t.Fatal("LatestCheckpoint must return a copy")
	}
	got.Params[1] = 888
	again, _ := s.LatestCheckpoint("t")
	if again.Params[1] == 888 || c.Params[1] == 888 {
		t.Fatal("a change to a returned checkpoint reached the store")
	}
}

func TestMemStoreKeepsOnlyTheLatest(t *testing.T) {
	// Round r's checkpoint is collectable once round r+1 is put: the store
	// does not grow by a model per round.
	file := must(NewFile(t.TempDir()))
	for name, m := range map[string]*Mem{"mem": NewMem(), "file": file.mem} {
		var s Store = m
		if name == "file" {
			s = file
		}
		if err := s.PutCheckpoint(ckpt("t", 1)); err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		prev := weak.Make(m.checkpoints["t"])
		m.mu.Unlock()
		if err := s.PutCheckpoint(ckpt("t", 2)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if prev.Value() != nil {
			t.Errorf("%s: round 1's checkpoint is still reachable after round 2's commit", name)
		}
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, _ := NewFile(dir)
	_ = s1.PutCheckpoint(ckpt("pop/task", 1))
	_ = s1.PutCheckpoint(ckpt("pop/task", 12))

	// A fresh store over the same directory must find the latest round.
	s2, _ := NewFile(dir)
	got, err := s2.LatestCheckpoint("pop/task")
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 12 {
		t.Fatalf("recovered round = %d, want 12", got.Round)
	}
	if got.TaskName != "pop/task" {
		t.Fatalf("recovered task = %q", got.TaskName)
	}

	// The task registry snapshot is durable too.
	if err := s1.PutTaskSet([]byte("registry")); err != nil {
		t.Fatal(err)
	}
	s3, _ := NewFile(dir)
	if b, err := s3.TaskSet(); err != nil || string(b) != "registry" {
		t.Fatalf("recovered task set = %q, %v", b, err)
	}
}

// TestSanitizeTask: a task's directory name is 32 lowercase hex digits,
// whatever the task name's length or bytes, and names that differ only in a
// separator, a dot or letter case get different directories.
func TestSanitizeTask(t *testing.T) {
	seen := map[string]string{}
	for _, task := range []string{"pop/task:v1", "pop/task", "pop_task", "Pop_Task", "..", "bench-1",
		strings.Repeat("/", 300)} {
		got := sanitizeTask(task)
		if len(got) != 32 || strings.Trim(got, "0123456789abcdef") != "" {
			t.Errorf("sanitize %q = %q, want 32 lowercase hex digits", task, got)
		}
		if other, ok := seen[got]; ok {
			t.Errorf("%q and %q share directory %q", task, other, got)
		}
		seen[got] = task
	}
}

// TestFileStoreTasksDoNotShareADirectory: tasks whose names differ only in a
// separator or in letter case, and one whose name is longer than a directory
// name may be, keep their own lineages across a restart, and a checkpoint
// filed under another task's directory is refused, not served as that task's
// model.
func TestFileStoreTasksDoNotShareADirectory(t *testing.T) {
	dir := t.TempDir()
	// The last is longer than NAME_MAX (255 bytes).
	lineages := map[string]int64{"pop/task": 1, "pop_task": 2, "Pop_Task": 3, strings.Repeat("/", 300): 4}
	s1, _ := NewFile(dir)
	for task, round := range lineages {
		if err := s1.PutCheckpoint(ckpt(task, round)); err != nil {
			t.Fatal(err)
		}
	}
	s2, _ := NewFile(dir)
	for task, round := range lineages {
		got, err := s2.LatestCheckpoint(task)
		if err != nil || got.TaskName != task || got.Round != round {
			t.Fatalf("LatestCheckpoint(%q) after restart = %+v, %v", task, got, err)
		}
	}
	b, err := ckpt("other", 3).Marshal(checkpoint.EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sanitizeTask("pop/task"), "round-0000000009.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(t, dir).LatestCheckpoint("pop/task"); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("another task's checkpoint read as pop/task's: %+v, %v", got, err)
	}
}

// TestFileStoreRefusesOldFormat: a checkpoint in the fixed-width format 1
// found on disk after a restart is an error, never a wrong model.
func TestFileStoreRefusesOldFormat(t *testing.T) {
	b, err := os.ReadFile("../checkpoint/testdata/checkpoint_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const task = "population/task-1" // the golden's task
	if err := os.MkdirAll(filepath.Join(dir, sanitizeTask(task)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, sanitizeTask(task), "round-0000000042.ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := reopen(t, dir).LatestCheckpoint(task); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("format 1 read as %+v, %v: want an error that is not ErrNoCheckpoint", got, err)
	}
}

func reopen(t *testing.T, dir string) *File {
	t.Helper()
	s, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
