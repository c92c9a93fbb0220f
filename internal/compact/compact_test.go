package compact

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunsAllJobs(t *testing.T) {
	s := NewScheduler(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if err := s.Submit(func() error { n.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFollowUpSubmissionFromWorker(t *testing.T) {
	// A job submitting its successor from inside a worker must not deadlock
	// — the cascade pattern background merges use.
	s := NewScheduler(1)
	defer s.Close()
	var depth atomic.Int64
	var enqueue func(d int) func() error
	enqueue = func(d int) func() error {
		return func() error {
			depth.Add(1)
			if d > 0 {
				return s.Submit(enqueue(d - 1))
			}
			return nil
		}
	}
	if err := s.Submit(enqueue(50)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if depth.Load() != 51 {
		t.Fatalf("cascade ran %d jobs, want 51", depth.Load())
	}
}

// TestSubmitModes: a scheduler without workers — nil, built with none, or
// closed — runs a job on the caller's goroutine and returns its error; one
// with workers queues it and returns nil, the job's error being the job's to
// report.
func TestSubmitModes(t *testing.T) {
	closed := NewScheduler(2)
	closed.Close()
	for _, row := range []struct {
		name    string
		s       *Scheduler
		workers int
	}{
		{"nil", nil, 0},
		{"zero-workers", NewScheduler(0), 0},
		{"closed", closed, 0},
		{"two-workers", NewScheduler(2), 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			if got := row.s.Workers(); got != row.workers {
				t.Fatalf("Workers() = %d, want %d", got, row.workers)
			}
			var ran atomic.Int64
			err := row.s.Submit(func() error { ran.Add(1); return fmt.Errorf("job failure") })
			if row.workers == 0 {
				if ran.Load() != 1 || err == nil || err.Error() != "job failure" {
					t.Fatalf("inline Submit: ran %d, err %v; want the job run and its error", ran.Load(), err)
				}
			} else if err != nil {
				t.Fatalf("Submit to workers returned %v", err)
			}
			row.s.Drain()
			if ran.Load() != 1 {
				t.Fatalf("ran %d times after Drain, want 1", ran.Load())
			}
			if row.s != nil {
				if err := row.s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestCloseDrainsQueueThenRunsInline(t *testing.T) {
	s := NewScheduler(1)
	var n atomic.Int64
	block := make(chan struct{})
	s.Submit(func() error { <-block; n.Add(1); return nil })
	for i := 0; i < 10; i++ {
		s.Submit(func() error { n.Add(1); return nil })
	}
	go func() { time.Sleep(10 * time.Millisecond); close(block) }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 11 {
		t.Fatalf("Close drained %d jobs, want 11", n.Load())
	}
	if err := s.Submit(func() error { n.Add(1); return nil }); err != nil || n.Load() != 12 {
		t.Fatalf("Submit after Close: err %v, %d jobs run; want the job run inline", err, n.Load())
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

func TestDrainWaitsForActiveJob(t *testing.T) {
	s := NewScheduler(2)
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var done atomic.Bool
	s.Submit(func() error {
		close(started)
		<-release
		done.Store(true)
		return nil
	})
	<-started
	go func() { time.Sleep(5 * time.Millisecond); close(release) }()
	s.Drain()
	if !done.Load() {
		t.Fatal("Drain returned before the active job finished")
	}
}
