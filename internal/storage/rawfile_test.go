package storage_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/fsx"
	"repro/internal/series"
	"repro/internal/storage"
)

// TestRawFile holds the raw series file to one table: every place one lives
// — a heap disk of its own, a series a page, fetching borrowed pages; the
// build's heap disk and host files on MemFS, several series a page, one page
// frame at a time; a buffer pool over the host files — by every way it comes
// to hold its series: a bulk write and appends past it, appends alone, and a
// bulk write reopened at a lower count and appended past that. In every row
// each series reads back right after its Append, also from readers running
// beside the appends; GetInto answers what Get answers, and the distance on
// the stored bytes what the distance to Get's series does, bit for bit; an ID
// out of range is ErrOutOfRange; the pages are the ones a RecordWriter writes
// for the same series; and, wherever fetches read a frame, a fixed fetch
// script costs the Stats of one page read a frame change, measured on a file
// written in one pass and then only read.
func TestRawFile(t *testing.T) {
	const n, total, bulk, reopenAt, pageSize = 16, 300, 137, 90, 512 // 4 series a page
	seriesOf := func(id int) series.Series {
		s := make(series.Series, n)
		for j := range s {
			s[j] = float64(id*n+j) + 0.5
		}
		return s
	}
	get := func(id int) (series.Series, error) { return seriesOf(id), nil }
	// written is the file a RecordWriter writes for every series.
	written := func(t *testing.T, pageSize int) *storage.Disk {
		ref := storage.NewDisk(pageSize)
		w, err := storage.NewRecordWriter(ref, "raw", series.Size(n))
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < total; id++ {
			if err := w.Write(seriesOf(id).AppendBinary(nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	q := seriesOf(total / 2)
	script := []int{0, 1, 2, 3, 4, 5, 100, 101, 3, 299, 298, 150, 151, 152, 153, 154, 7}

	hostDisk := func(t *testing.T) *storage.Disk {
		d, err := storage.NewFileDisk(storage.FileDiskOptions{Dir: "store", PageSize: pageSize, FS: fsx.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	type accounting interface {
		Stats() storage.Stats
		ResetStats()
	}
	places := []struct {
		name string
		// open returns the disk, the reader fetches go through (nil: borrowed
		// pages) and the accounting the fetch script is measured on (nil: no
		// one reads it).
		open   func(t *testing.T) (*storage.Disk, storage.PageReader, accounting)
		script storage.Stats // the script's cost on a file written in one pass
	}{
		{name: "heap-own", open: func(t *testing.T) (*storage.Disk, storage.PageReader, accounting) {
			return storage.NewDisk(series.Size(n)), nil, nil
		}},
		{name: "build-disk", open: func(t *testing.T) (*storage.Disk, storage.PageReader, accounting) {
			d := storage.NewDisk(pageSize)
			return d, d, d
		}, script: storage.Stats{SeqReads: 2, RandReads: 6}},
		{name: "host-memfs", open: func(t *testing.T) (*storage.Disk, storage.PageReader, accounting) {
			d := hostDisk(t)
			return d, d, d
		}, script: storage.Stats{SeqReads: 2, RandReads: 6}},
		{name: "pool-over-host", open: func(t *testing.T) (*storage.Disk, storage.PageReader, accounting) {
			p := bufpool.New(hostDisk(t), 8*pageSize)
			return p.Disk().(*storage.Disk), p, p
		}, script: storage.Stats{SeqReads: 2, RandReads: 4, CacheHits: 2, CacheMisses: 6}},
	}
	ways := []struct {
		name string
		// make returns the file and the first ID left to append.
		make func(t *testing.T, d *storage.Disk) (*storage.RawFile, int)
	}{
		{"bulk-then-append", func(t *testing.T, d *storage.Disk) (*storage.RawFile, int) {
			r, err := storage.CreateRawFile(d, "raw", n, bulk, get)
			if err != nil {
				t.Fatal(err)
			}
			return r, bulk
		}},
		{"append-only", func(t *testing.T, d *storage.Disk) (*storage.RawFile, int) {
			r, err := storage.CreateRawFile(d, "raw", n, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r, 0
		}},
		{"reopen-at-count", func(t *testing.T, d *storage.Disk) (*storage.RawFile, int) {
			if _, err := storage.CreateRawFile(d, "raw", n, bulk, get); err != nil {
				t.Fatal(err)
			}
			if err := new(storage.RawFile).Open(d, "raw", n, total); err == nil {
				t.Fatalf("opened at %d series a file that holds %d", total, bulk)
			}
			r := new(storage.RawFile)
			if err := r.Open(d, "raw", n, reopenAt); err != nil {
				t.Fatal(err)
			}
			return r, reopenAt
		}},
	}
	for _, pl := range places {
		for _, way := range ways {
			t.Run(pl.name+"/"+way.name, func(t *testing.T) {
				d, reader, acct := pl.open(t)
				r, next := way.make(t, d)
				r.UseReader(reader)
				if r.Count() != next {
					t.Fatalf("holds %d series, want %d", r.Count(), next)
				}
				// Readers beside the appends fetch whatever the file holds.
				var stop atomic.Bool
				var wg sync.WaitGroup
				for g := 0; g < 3; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng, buf := rand.New(rand.NewSource(seed)), make(series.Series, n)
						for !stop.Load() {
							count := r.Count()
							if count == 0 {
								continue
							}
							id := rng.Intn(count)
							if got, err := r.GetInto(id, buf); err != nil || !reflect.DeepEqual(got, seriesOf(id)) {
								t.Errorf("series %d of %d beside the appends: %v, %v", id, count, got, err)
								return
							}
						}
					}(int64(g))
				}
				for id := next; id < total; id++ {
					got, err := r.Append(seriesOf(id))
					if err != nil || got != id {
						t.Fatalf("Append: ID %d, %v; want %d", got, err, id)
					}
					if s, err := r.Get(id); err != nil || !reflect.DeepEqual(s, seriesOf(id)) {
						t.Fatalf("series %d right after its Append: %v, %v", id, s, err)
					}
				}
				stop.Store(true)
				wg.Wait()
				if _, err := r.Append(make(series.Series, n+1)); err == nil {
					t.Fatal("appended a series of the wrong length")
				}

				buf := make(series.Series, n)
				for id := 0; id < total; id++ {
					s, err := r.Get(id)
					if err != nil || !reflect.DeepEqual(s, seriesOf(id)) {
						t.Fatalf("Get(%d) = %v, %v", id, s, err)
					}
					if into, err := r.GetInto(id, buf); err != nil || !reflect.DeepEqual(into, s) {
						t.Fatalf("GetInto(%d) = %v, %v; Get answers %v", id, into, err, s)
					}
					for _, limit := range []float64{math.Inf(1), 3e4} {
						want := q.SqDistEarlyAbandon(s, limit)
						if got, err := r.SqDistEarlyAbandon(id, q, limit); err != nil || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("SqDistEarlyAbandon(%d, limit %g) = %v, %v; want %v", id, limit, got, err, want)
						}
					}
				}
				for _, id := range []int{-1, total} {
					if _, err := r.Get(id); !errors.Is(err, storage.ErrOutOfRange) {
						t.Fatalf("Get(%d) of %d: %v, want ErrOutOfRange", id, total, err)
					}
					if _, err := r.GetInto(id, buf); !errors.Is(err, storage.ErrOutOfRange) {
						t.Fatalf("GetInto(%d) of %d: %v, want ErrOutOfRange", id, total, err)
					}
					if _, err := r.SqDistEarlyAbandon(id, q, math.Inf(1)); !errors.Is(err, storage.ErrOutOfRange) {
						t.Fatalf("SqDistEarlyAbandon(%d) of %d: %v, want ErrOutOfRange", id, total, err)
					}
				}

				ref := written(t, d.PageSize())
				pages, _ := d.NumPages("raw")
				want, _ := ref.NumPages("raw")
				if pages != want {
					t.Fatalf("%d pages, a RecordWriter writes %d", pages, want)
				}
				got, exp := make([]byte, d.PageSize()), make([]byte, d.PageSize())
				for p := int64(0); p < pages; p++ {
					d.ReadPage("raw", p, got)
					ref.ReadPage("raw", p, exp)
					if !bytes.Equal(got, exp) {
						t.Fatalf("page %d differs from the one a RecordWriter writes", p)
					}
				}

				if acct == nil {
					return
				}
				// A fresh frame over a cold pool and a parked head, as a file
				// written in one pass and then read has them.
				if p, ok := reader.(*bufpool.Pool); ok {
					p.Purge()
				}
				r.UseReader(reader)
				acct.ResetStats()
				for _, id := range script {
					if _, err := r.GetInto(id, buf); err != nil {
						t.Fatal(err)
					}
				}
				if st := acct.Stats(); st != pl.script {
					t.Fatalf("fetch script cost %+v, want %+v", st, pl.script)
				}
			})
		}
	}
}
