// Package compact provides the compaction scheduler that moves LSM merge
// work off the foreground ingest path: a bounded worker pool draining an
// unbounded job queue. Flushes stay inline (a cheap sort plus a sequential
// run write), but level merges — the expensive, cascading part — are
// submitted here and execute while inserts and searches keep running
// against the manifest the merge has not yet replaced.
//
// A scheduler without workers — nil, built with zero workers, or closed —
// runs a submitted job on the caller's goroutine and returns its error:
// that is the inline cascade, the paper-faithful single-stream accounting.
// The scheduler keeps no error and no statistics of its own; a job reports
// its failure to whoever submitted it.
//
// One scheduler is shared wherever merges should share a budget: the
// sharded facade runs every shard's merges on a single scheduler so the
// configured worker count bounds the whole deployment's background I/O, not
// each shard's.
//
// The queue is unbounded on purpose: jobs submit follow-up jobs (a merge
// that cascades schedules the next level's merge from inside a worker), so
// a bounded queue could deadlock the pool against itself. Backpressure
// belongs to the callers — the LSM keeps at most one outstanding compaction
// job per index, so the queue length is bounded by the number of indexes
// sharing the scheduler.
package compact

import "sync"

// Scheduler runs jobs on a fixed pool of workers, or inline without one.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func() error
	closed bool

	workers  int
	wg       sync.WaitGroup // worker goroutines
	inflight sync.WaitGroup // submitted-but-unfinished jobs
}

// NewScheduler starts a scheduler with n workers; n <= 0 runs every job
// inline.
func NewScheduler(n int) *Scheduler {
	s := &Scheduler{workers: max(n, 0)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		job()
		s.inflight.Done()
	}
}

// Submit runs job: on a worker, returning nil at once, or — nil, without
// workers or closed — on the caller's goroutine, returning the job's error.
// Jobs may Submit follow-ups from inside a worker.
func (s *Scheduler) Submit(job func() error) error {
	if s == nil {
		return job()
	}
	s.mu.Lock()
	if s.workers == 0 || s.closed {
		s.mu.Unlock()
		return job()
	}
	s.inflight.Add(1)
	s.queue = append(s.queue, job)
	s.mu.Unlock()
	s.cond.Signal()
	return nil
}

// Drain blocks until every job submitted to a worker so far (and every
// follow-up those jobs submit before finishing) has completed. Safe to call
// concurrently with Submit; it waits for the moving target to settle.
func (s *Scheduler) Drain() {
	if s != nil {
		s.inflight.Wait()
	}
}

// Workers returns how many workers run submitted jobs: 0 when jobs run
// inline (nil, built without workers, or closed).
func (s *Scheduler) Workers() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	return s.workers
}

// Close drains the queue and stops the workers; jobs submitted afterwards
// run inline. Idempotent. It reports no error: a job's failure belongs to
// whoever submitted it.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}
