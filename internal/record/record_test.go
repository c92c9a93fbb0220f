package record

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/series"
	"repro/internal/sortable"
)

func TestCodecRoundTripNonMaterialized(t *testing.T) {
	c := Codec{SeriesLen: 8, Materialized: false}
	if c.Size() != HeaderBytes {
		t.Fatalf("size = %d, want %d", c.Size(), HeaderBytes)
	}
	e := Entry{Key: sortable.Key{Hi: 0xDEAD, Lo: 0xBEEF}, ID: -5, TS: 42}
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != c.Size() {
		t.Fatalf("encoded %d bytes, want %d", len(buf), c.Size())
	}
	got, err := c.DecodeInto(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != e.Key || got.ID != e.ID || got.TS != e.TS || got.Payload != nil {
		t.Fatalf("roundtrip = %+v, want %+v", got, e)
	}
}

func TestCodecRoundTripMaterialized(t *testing.T) {
	c := Codec{SeriesLen: 4, Materialized: true}
	if c.Size() != HeaderBytes+32 {
		t.Fatalf("size = %d", c.Size())
	}
	e := Entry{Key: sortable.Key{Hi: 1}, ID: 7, TS: 9, Payload: series.Series{1, 2, 3, 4}}
	buf, err := c.Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeInto(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload[2] != 3 {
		t.Fatalf("payload = %v", got.Payload)
	}
}

func TestCodecPayloadValidation(t *testing.T) {
	c := Codec{SeriesLen: 4, Materialized: true}
	if _, err := c.Encode(Entry{Payload: series.Series{1}}); err == nil {
		t.Fatal("short payload should fail")
	}
	if _, err := c.Encode(Entry{}); err == nil {
		t.Fatal("nil payload should fail when materialized")
	}
	if _, err := c.DecodeInto(make([]byte, 10), nil); err == nil {
		t.Fatal("short decode should fail")
	}
}

func TestDecodeHeaderFieldsInPlace(t *testing.T) {
	// The page view reads a record's ID and timestamp straight from its
	// header, payload bytes and all, so the field decoders must agree with
	// Encode at the extremes and never read past the header.
	c := Codec{SeriesLen: 2, Materialized: true}
	for _, e := range []Entry{
		{Key: sortable.Key{Hi: 1, Lo: 2}, ID: -1, TS: 1 << 62, Payload: series.Series{3, 4}},
		{Key: sortable.Key{Hi: ^uint64(0)}, ID: 1<<63 - 1, TS: -1 << 63, Payload: series.Series{-5, 6}},
	} {
		buf, err := c.Encode(e)
		if err != nil {
			t.Fatal(err)
		}
		if sortable.DecodeKey(buf) != e.Key || decodeID(buf) != e.ID || decodeTS(buf) != e.TS {
			t.Fatalf("header fields = (%v, %d, %d), want (%v, %d, %d)",
				sortable.DecodeKey(buf), decodeID(buf), decodeTS(buf), e.Key, e.ID, e.TS)
		}
		if got := decodeTS(buf[:HeaderBytes]); got != e.TS {
			t.Fatalf("decodeTS on header alone = %d, want %d", got, e.TS)
		}
	}
}

func TestEntryLessOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := make([]Entry, 500)
	for i := range entries {
		entries[i] = Entry{
			Key: sortable.Key{Hi: rng.Uint64() % 8, Lo: rng.Uint64() % 8},
			ID:  int64(rng.Intn(10)),
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if b.Less(a) {
			t.Fatalf("not sorted at %d", i)
		}
		if a.Key == b.Key && a.ID > b.ID {
			t.Fatalf("tie not broken by ID at %d", i)
		}
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	c := Codec{SeriesLen: 8, Materialized: true}
	f := func(hi, lo uint64, id, ts int64, payload [8]float64) bool {
		for _, v := range payload {
			if v != v { // skip NaN (compares unequal)
				return true
			}
		}
		e := Entry{Key: sortable.Key{Hi: hi, Lo: lo}, ID: id, TS: ts, Payload: payload[:]}
		buf, err := c.Encode(e)
		if err != nil {
			return false
		}
		got, err := c.DecodeInto(buf, nil)
		if err != nil || got.Key != e.Key || got.ID != id || got.TS != ts {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
