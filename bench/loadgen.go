package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the time source of the load generators; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loopResult is what a load generator measured. Latencies are nanoseconds;
// an operation that returned an error has no latency sample and counts in
// Failed.
type loopResult struct {
	Lat    []int64 // per completed operation: closed loop from send, open loop from due time
	Lag    []int64 // open loop only: how late each operation was sent
	Wall   time.Duration
	Failed int64
	Err    error // first error seen
}

func (r *loopResult) attempted() int64 { return int64(len(r.Lat)) + r.Failed }

// closedLoop runs op from `clients` goroutines, each sending its next
// operation only after the previous one completed, until `budget` has
// elapsed (budget <= 0: no limit) or maxOps operations were claimed
// (maxOps <= 0: no cap).
// Operations are numbered in claim order.
func closedLoop(clk clock, clients int, budget time.Duration, maxOps int, op func(client, i int) error) loopResult {
	start := clk.Now()
	deadline := start.Add(budget)
	var next atomic.Int64
	per := make([]loopResult, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			for {
				i := int(next.Add(1) - 1)
				if maxOps > 0 && i >= maxOps {
					return
				}
				t0 := clk.Now()
				if budget > 0 && !t0.Before(deadline) {
					return
				}
				err := op(c, i)
				if errors.Is(err, errStop) {
					return
				}
				if err != nil {
					r.fail(err)
					continue
				}
				r.Lat = append(r.Lat, int64(clk.Now().Sub(t0)))
			}
		}(c)
	}
	wg.Wait()
	return mergeLoops(per, clk.Now().Sub(start))
}

// openLoop sends `count` operations on a fixed schedule, operation i being
// due at start + i*interval, from at most `workers` goroutines (the bound on
// operations in flight). A worker that finds its operation already due sends
// it at once; latency is taken from the due time, so the wait a stall
// imposes on later operations counts, and Lag records how late each was
// sent.
func openLoop(clk clock, workers int, interval time.Duration, count int, op func(worker, i int) error) loopResult {
	start := clk.Now()
	var next atomic.Int64
	per := make([]loopResult, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := due.Sub(clk.Now()); wait > 0 {
					clk.Sleep(wait)
				}
				lag := int64(clk.Now().Sub(due))
				if err := op(w, i); err != nil {
					r.fail(err)
					continue
				}
				r.Lag = append(r.Lag, lag)
				r.Lat = append(r.Lat, int64(clk.Now().Sub(due)))
			}
		}(w)
	}
	wg.Wait()
	return mergeLoops(per, clk.Now().Sub(start))
}

func (r *loopResult) fail(err error) {
	r.Failed++
	if r.Err == nil {
		r.Err = err
	}
}

func mergeLoops(per []loopResult, wall time.Duration) loopResult {
	out := loopResult{Wall: wall}
	for _, r := range per {
		out.Lat = append(out.Lat, r.Lat...)
		out.Lag = append(out.Lag, r.Lag...)
		out.Failed += r.Failed
		if out.Err == nil {
			out.Err = r.Err
		}
	}
	return out
}

// errStop, returned by a closed loop's operation, ends that client's loop
// without counting as an operation: a loop that runs beside another phase
// stops when that phase does.
var errStop = errors.New("bench: loop stopped")
