package main

import (
	"runtime"
	"time"
)

// The yardstick. The sandbox's cores are hyperthreads of a shared host: for
// seconds to minutes at a time a neighbour on the sibling thread slows
// everything this process runs by up to one half, and no statistic taken
// over one run removes a spell that outlasts the run. So every timed
// end-to-end number is calibrated: beside each timed operation the harness
// times a fixed pair of loops, and divides the operation's time by how many
// times slower than nominal they ran. On a quiet core the factor is 1 and a
// calibrated time is the wall time; on a slowed core it is what the
// operation would have taken on a quiet one. README.md has the measurements
// behind this, and why the loops are the ones they are.
const (
	yardChain  = 350_000 // steps of the dependent chain
	yardPasses = 350     // passes of the four-chain loop over its table
	yardTable  = 2048    // float64s: 16 KB, resident in L1
	// yardNominal is what both loops take on a quiet core of the reference
	// box (Xeon @ 2.1 GHz, 2 vCPUs). On another machine every calibrated time
	// is scaled by one constant, which a comparison of two commits on that
	// machine does not see.
	yardNominal = 565 * time.Microsecond
)

var yardValues = func() []float64 {
	t := make([]float64, yardTable)
	for i := range t {
		t[i] = float64(i%7) * 0.25
	}
	return t
}()

// yardSink keeps the compiler from removing the loops.
var yardSink float64

// slowdown runs the yardstick once, about half a millisecond, and returns
// how many times slower than nominal the core ran it. The yardstick is two
// loops of equal length. The first is one dependent multiply-add chain: it
// waits on its own latency, and a neighbour on the sibling thread slows it
// little. The second keeps four independent chains busy from a table in L1:
// the neighbour takes issue slots and cache from it and slows it a lot. The
// program's own code sits between the two, and so does their sum: README.md
// has each loop's fit to the workloads' times.
func slowdown() float64 {
	t := time.Now()
	x, s := 1.0001, 0.0
	for i := 0; i < yardChain; i++ {
		s += x * x
		x += 1e-9
	}
	var a0, a1, a2, a3 float64
	c := 1.0000001
	for p := 0; p < yardPasses; p++ {
		tab := yardValues
		for i := 0; i+4 <= len(tab); i += 4 {
			a0 += tab[i] * c
			a1 += tab[i+1] * c
			a2 += tab[i+2] * c
			a3 += tab[i+3] * c
		}
	}
	yardSink += s + a0 + a1 + a2 + a3
	return float64(time.Since(t)) / float64(yardNominal)
}

// timed is one operation's wall time beside the box's slowdown when it ran.
type timed struct {
	wall time.Duration
	slow float64
}

// ms is the calibrated time in milliseconds.
func (t timed) ms() float64 { return t.wall.Seconds() * 1e3 / t.slow }

// seconds is the calibrated time in seconds.
func (t timed) seconds() float64 { return t.wall.Seconds() / t.slow }

// yardLog keeps a run's yardstick readings with the times they were taken,
// so that a long operation can be calibrated against the readings around
// it. One goroutine uses it: every calibrated phase has one client.
type yardLog struct {
	at   []time.Time
	slow []float64
}

func (y *yardLog) read() float64 {
	s := slowdown()
	y.at, y.slow = append(y.at, time.Now()), append(y.slow, s)
	return s
}

// timeOp times a short operation (milliseconds) against one reading taken
// just before it.
func (y *yardLog) timeOp(op func() error) (timed, error) {
	s := y.read()
	t := time.Now()
	err := op()
	return timed{time.Since(t), s}, err
}

const (
	// yardBracket is how many readings are taken just before and just after
	// a long operation, and yardWindow how far from it a reading still
	// counts as beside it.
	yardBracket = 10
	yardWindow  = time.Second
)

// longOp is when a long operation ran.
type longOp struct{ start, end time.Time }

// timeLong runs a long operation (a build, a generation: a second or so)
// between two brackets of readings. It collects garbage first, so that the
// operation reuses the heap its predecessors left instead of growing it:
// fresh memory costs this sandbox about 5 ms per MB in page faults, which
// made a bulk load take 0.9 to 2.4 s by what was closed before it.
func (y *yardLog) timeLong(op func() error) (longOp, error) {
	runtime.GC()
	for i := 0; i < yardBracket; i++ {
		y.read()
	}
	start := time.Now()
	err := op()
	end := time.Now()
	for i := 0; i < yardBracket; i++ {
		y.read()
	}
	return longOp{start, end}, err
}

// settle calibrates a long operation against the median of the readings
// taken within yardWindow of it: its own brackets and those of the short
// operations that ran before and after it. A few readings of half a
// millisecond say little about a second; the neighbourhood says more. Call
// it once the operations that follow have run.
func (y *yardLog) settle(l longOp) timed {
	from, to := l.start.Add(-yardWindow), l.end.Add(yardWindow)
	var near []float64
	for i, at := range y.at {
		if at.After(from) && at.Before(to) {
			near = append(near, y.slow[i])
		}
	}
	return timed{l.end.Sub(l.start), median(near)}
}

// replay holds the times of the same operations sent pass after pass:
// replay[pass][op]. Every pass sends the same operations in the same order
// from one client, so the passes differ only by the machine.
type replay [][]timed

// perOp is each operation's calibrated time in milliseconds, the median
// over the passes: a reading the machine disturbed in fewer than half the
// passes does not move it.
func (r replay) perOp() []float64 {
	if len(r) == 0 {
		return nil
	}
	out := make([]float64, len(r[0]))
	across := make([]float64, len(r))
	for op := range out {
		for p := range r {
			across[p] = r[p][op].ms()
		}
		out[op] = median(across)
	}
	return out
}

// rawMedian is the median wall time over every sample, uncalibrated, and
// boxSlowdown the median reading beside them: both are printed beside the
// calibrated numbers so that a reader sees what the box did.
func (r replay) rawMedian() float64 {
	var all []float64
	for _, pass := range r {
		for _, t := range pass {
			all = append(all, t.wall.Seconds()*1e3)
		}
	}
	return median(all)
}

func (r replay) boxSlowdown() float64 {
	var all []float64
	for _, pass := range r {
		for _, t := range pass {
			all = append(all, t.slow)
		}
	}
	return median(all)
}
