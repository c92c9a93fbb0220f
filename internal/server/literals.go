package server

// This file holds the router's form of an insert request. The router needs
// only each inserted series' count of numbers and whether the body is
// valid, never the values, so it keeps every series as one compact JSON
// array literal: the client's number tokens, checked against JSON's
// grammar, with no whitespace between them. A token that can be out of
// float64's range (one with an exponent part, or with 309 or more integer
// digits; a 308-digit integer is below math.MaxFloat64) is parsed, and a
// body holding one that overflows is left to encoding/json, which refuses
// it with its own text. A token wider than maxFloatBytes is re-rendered
// from its parsed value. So every literal parses, number for number, to
// the bits the request's floats decode to, and holds no token wider than
// encoding/json writes one.

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"
)

// maxFloatBytes is the widest encoding/json renders a float64, e.g.
// -0.0000012345678901234567.
const maxFloatBytes = 25

// InsertLiterals is the router's form of an InsertRequest: DecodeRequest
// fills it from the same bodies, accepting and refusing each as it does an
// InsertRequest, with the same status and error text. Series holds the
// request's series as literals, and the other members are decoded as
// InsertRequest's are.
type InsertLiterals struct {
	// Series holds each series as one literal: "[", its numbers, comma
	// separated, "]", or "null" for a null series. It is nil when the
	// request's series is null or missing.
	Series [][]byte
	counts []int         // the numbers of each series
	req    InsertRequest // every other member; its Series stays nil
}

// Check checks the insert as InsertRequest.Check checks it, over each
// literal's count of numbers.
func (l *InsertLiterals) Check(w http.ResponseWriter, n int) bool {
	return checkInsert(w, "series", "series", len(l.counts), func(i int) int { return l.counts[i] }, l.req.Timestamps, n)
}

// Stamps returns each series' insert stamp, as InsertRequest.Stamps does.
func (l *InsertLiterals) Stamps() []int64 { return stamps(l.req.Timestamps, l.req.TS, len(l.Series)) }

// set makes Series from arena, series i ending at ends[i], and holding
// counts[i] numbers; nil counts is a null series member.
func (l *InsertLiterals) set(arena []byte, ends, counts []int) {
	l.Series, l.counts = nil, counts
	if counts == nil {
		return
	}
	l.Series = make([][]byte, len(ends))
	start := 0
	for i, end := range ends {
		l.Series[i] = arena[start:end:end]
		start = end
	}
}

// render fills Series from the floats encoding/json decoded into req, each
// rendered by AppendSeries.
func (l *InsertLiterals) render() {
	batch := l.req.Series
	l.req.Series = nil
	if batch == nil {
		l.set(nil, nil, nil)
		return
	}
	var arena []byte
	ends := make([]int, len(batch))
	counts := make([]int, len(batch))
	for i, s := range batch {
		// Floats decoded from JSON are finite.
		arena, _ = AppendSeries(arena, s)
		ends[i], counts[i] = len(arena), len(s)
	}
	l.set(arena, ends, counts)
}

// literals scans an InsertRequest's object into l: as nested scans its
// "series", except that each series is kept as a literal.
func (d *decoder) literals(l *InsertLiterals) (set func(), err error) {
	set = func() {}
	err = d.object("series", func([]byte) error {
		var (
			arena        []byte
			ends, counts []int
		)
		set = func() { l.set(arena, ends, counts) }
		if d.literal("null") {
			return nil
		}
		// A literal is never longer than the bytes it was scanned from.
		arena = make([]byte, 0, len(d.data)-d.i)
		counts = []int{}
		return d.array(func() error {
			lit, n, err := d.appendLiteral(arena)
			arena, ends, counts = lit, append(ends, len(lit)), append(counts, n)
			return err
		})
	})
	return set, err
}

// appendLiteral scans the JSON array of numbers, or null, at the scan
// position, appends it to dst as a literal, and returns how many numbers
// it holds.
func (d *decoder) appendLiteral(dst []byte) ([]byte, int, error) {
	if d.literal("null") {
		return append(dst, "null"...), 0, nil
	}
	dst = append(dst, '[')
	n := 0
	err := d.array(func() error {
		if n > 0 {
			dst = append(dst, ',')
		}
		n++
		start := d.i
		ok, mayOverflow := d.numberRange()
		if !ok {
			return errDecline
		}
		tok := d.data[start:d.i]
		wide := len(tok) > maxFloatBytes
		if !wide && !mayOverflow {
			dst = append(dst, tok...)
		} else if f, err := strconv.ParseFloat(string(tok), 64); err != nil {
			return errDecline
		} else if wide {
			dst, _ = appendFloat(dst, f)
		} else {
			dst = append(dst, tok...)
		}
		return nil
	})
	return append(dst, ']'), n, err
}

// AppendSeries appends s to dst as one compact JSON array literal, each
// value as encoding/json renders a float64, and "null" for a nil s: the
// bytes json.Marshal writes for s. It refuses NaN and ±Inf with the error
// json.Marshal gives.
func AppendSeries(dst []byte, s []float64) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, f); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat appends f as encoding/json renders a float64: the shortest
// spelling that parses back to f, in exponent form below 1e-6 or from 1e21
// on, with a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
