package device

import (
	"fmt"
	"sync"
)

// Scheduler is the multi-tenant on-device scheduler (Sec. 3 Multi-Tenancy,
// Sec. 11 Device Scheduling): multiple FL populations registered in the
// same app share one worker queue, and training sessions never run in
// parallel "because of their high resource consumption".
type Scheduler struct {
	mu      sync.Mutex
	queue   []*Job
	running bool
}

// Job is one queued training session.
type Job struct {
	Population string
	Run        func()
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Enqueue appends a session to the worker queue.
func (s *Scheduler) Enqueue(j *Job) error {
	if j == nil || j.Run == nil {
		return fmt.Errorf("device: nil job")
	}
	s.mu.Lock()
	s.queue = append(s.queue, j)
	s.mu.Unlock()
	return nil
}

// Pending returns the queue length.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// RunNext executes the next queued session, if any, and reports whether one
// ran. It refuses to overlap sessions.
func (s *Scheduler) RunNext() (bool, error) {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return false, fmt.Errorf("device: a training session is already running")
	}
	if len(s.queue) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	s.running = true
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		s.running = false
		s.mu.Unlock()
	}()
	j.Run()
	return true, nil
}

// DrainAll runs queued sessions until the queue is empty.
func (s *Scheduler) DrainAll() (int, error) {
	n := 0
	for {
		ran, err := s.RunNext()
		if err != nil {
			return n, err
		}
		if !ran {
			return n, nil
		}
		n++
	}
}
