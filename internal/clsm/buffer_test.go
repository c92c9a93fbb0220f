package clsm

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compact"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/series"
)

// The write buffer keeps its entries' symbol column beside them
// (index.Buffer), published with them in every view and trimmed with them
// at every flush commit. A column out of step with its entries bounds an
// entry by another's symbols, and a search then prunes a true neighbour:
// these tests compare answers that lean on the buffer with brute force.

// bruteWindow offers every series of ds whose ID (its timestamp here) lies
// in [lo, hi] to col and returns its results.
func bruteWindow(q index.Query, ds *series.Dataset, lo, hi int64, col *index.Collector) []index.Result {
	for id := lo; id <= hi; id++ {
		s, _ := ds.Get(int(id))
		col.Add(index.Result{ID: id, Dist: math.Sqrt(q.Norm.SqDist(s.ZNormalize()))})
	}
	return col.Results()
}

// sameAsBrute compares a search's answer with brute force's: the same IDs,
// in order, at the same distances.
func sameAsBrute(got, want []index.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			return fmt.Errorf("result %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestConcurrentBufferAnswers runs inserts, explicit flushes of part-full
// buffers, background merges and windowed searches at once. Every window
// ends at the newest acknowledged entry, so the buffer — mid-flush or just
// trimmed — holds part of every answer, and every k-NN and range answer must
// be brute force's over the window.
func TestConcurrentBufferAnswers(t *testing.T) {
	const n, buf, k = 1200, 96, 5
	ds := makeDataset(n, 61)
	sched := compact.NewScheduler(1)
	defer sched.Close()
	l := backgroundLSM(t, ds, sched, 3, buf)
	var acked atomic.Int64         // entries 0..acked-1 are acknowledged, at TS = ID
	written := make(chan struct{}) // closed when the writer is done
	done := func() bool {
		select {
		case <-written:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(written)
		for id := 0; id < n; id++ {
			s, _ := ds.Get(id)
			if err := l.Insert(s, int64(id)); err != nil {
				t.Error(err)
				return
			}
			acked.Store(int64(id + 1))
		}
	}()
	go func() { // flushes a buffer 37 entries past the last one, mid-fill
		defer wg.Done()
		for next := int64(37); next < n; next += 37 {
			for acked.Load() < next && !done() {
				runtime.Gosched()
			}
			if err := l.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(61 + w)))
			for i := 0; i < 30 || !done(); i++ { // and on until the writer is done
				hi := acked.Load() - 1
				if hi < 0 {
					runtime.Gosched()
					continue
				}
				lo := max(hi-int64(rng.Intn(2*buf)), 0)
				q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false)).WithWindow(lo, hi)
				want := bruteWindow(q, ds, lo, hi, index.NewCollector(k))
				got, err := exactSearch(l, q, k)
				if err == nil {
					err = sameAsBrute(got, want)
				}
				if err != nil {
					t.Errorf("searcher %d query %d, window [%d,%d]: %v", w, i, lo, hi, err)
					return
				}
				eps := want[len(want)-1].Dist
				got, err = rangeSearch(l, q, eps)
				if err == nil {
					err = sameAsBrute(got, bruteWindow(q, ds, lo, hi, index.NewRangeCollector(eps)))
				}
				if err != nil {
					t.Errorf("searcher %d range query %d, window [%d,%d]: %v", w, i, lo, hi, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Quiesce(); err != nil {
		t.Fatal(err)
	}
	checkSummaries(t, l)
}

// TestCrashRecoveryReplayedBuffer crashes a durable LSM with entries past
// its last flush, which only the log holds, and reopens it: Replay re-inserts
// them through the insert path, and with a buffer smaller than the crashed
// one's it flushes on the way, so the buffer it leaves has dropped a prefix.
// Searches whose window holds only the replayed buffer, and searches over
// everything, answer as brute force over the acknowledged series does.
func TestCrashRecoveryReplayedBuffer(t *testing.T) {
	const k = 5
	ds := makeDataset(400, 62)
	for _, c := range []struct {
		n, crashedBuf, reopenedBuf int
	}{
		{n: 40, crashedBuf: 64, reopenedBuf: 64},   // the buffer alone, no run
		{n: 300, crashedBuf: 64, reopenedBuf: 64},  // runs and a replayed buffer of 44
		{n: 300, crashedBuf: 64, reopenedBuf: 16},  // 44 replayed: two flushes, 12 left
		{n: 400, crashedBuf: 128, reopenedBuf: 24}, // 16 replayed, no flush
	} {
		t.Run(fmt.Sprintf("n=%d/buffer=%d->%d", c.n, c.crashedBuf, c.reopenedBuf), func(t *testing.T) {
			disk, dir := crashDisk(t, ds), t.TempDir()
			l, w := durableLSM(t, disk, dir, ds, c.crashedBuf)
			for id := 0; id < c.n; id++ {
				s, _ := ds.Get(id)
				if err := l.Insert(s, int64(id)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			flushed := l.Flushes()
			l = nil // the crash: only the disk and the log survive
			rec, w2 := recoverLSM(t, disk, dir, ds, c.reopenedBuf)
			defer w2.Close()
			replayed := int64(c.n) - flushed*int64(c.crashedBuf)
			if got, want := int64(rec.buffer.Len()), replayed%int64(c.reopenedBuf); got != want {
				t.Fatalf("replayed buffer holds %d entries, want %d", got, want)
			}
			first := int64(c.n) - int64(rec.buffer.Len()) // the buffer's first entry, at TS = ID
			rng := rand.New(rand.NewSource(int64(c.n + c.reopenedBuf)))
			for trial := 0; trial < 6; trial++ {
				q := index.NewQuery(gen.RandomWalk(rng, 64), testConfig(false))
				lo := int64(0)
				if trial%2 == 0 && first < int64(c.n) {
					lo, q = first, q.WithWindow(first, int64(c.n)-1)
				}
				got, err := exactSearch(rec, q, k)
				if err == nil {
					err = sameAsBrute(got, bruteWindow(q, ds, lo, int64(c.n)-1, index.NewCollector(k)))
				}
				if err != nil {
					t.Fatalf("trial %d, window %v [%d,%d]: %v", trial, q.Windowed, q.MinTS, q.MaxTS, err)
				}
			}
			assertAllSearchable(t, rec, ds, c.n, 2, int64(c.n))
		})
	}
}
