package server

// This file holds the one request decoder. A body is read once, under
// MaxRequestBytes: a body over it is refused whatever it holds, and one
// under it must be one JSON value, followed by nothing but whitespace. The
// float arrays of the five request types that carry
// series are scanned here by hand: each number's JSON grammar is checked,
// then strconv.ParseFloat(…, 64) reads it, the call encoding/json makes, so
// the floats are bit-identical. Every other key of those objects goes, as its
// raw bytes, to encoding/json, which keeps its key folding, null handling and
// type errors. A body the scanner does not take (a grammar or type error, an
// escaped or non-ASCII key beside the series, a repeated "entries", a
// top-level value that is not an object, bytes after the value) is decoded
// whole by json.Unmarshal, whose result or error is the answer. The
// router's InsertLiterals is scanned as an InsertRequest is, its series kept
// as literals (literals.go). Every other request type is decoded by
// encoding/json alone.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// DecodeRequest decodes r's JSON body into v, and reports whether v holds
// the request. A body over MaxRequestBytes is answered 413, whatever it
// holds; one that is not a single JSON value, with only whitespace after
// it, that decodes into v, is answered 400; each with a JSON error. Every
// handler that takes a JSON body, the router's too, reads it here.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	d := decoders.Get().(*decoder)
	defer d.release()
	_, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil && d.scan(d.body.Bytes(), v) != nil {
		err = unmarshal(d.body.Bytes(), v)
	}
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	default:
		WriteError(w, http.StatusBadRequest, "bad request: %v", err)
	}
	return false
}

// maxPooledBody bounds the buffers a decoder keeps between requests, so one
// large body does not stay resident.
const maxPooledBody = 1 << 20

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decoder is one request's pooled buffers: the body, and what scanning it
// needs.
type decoder struct {
	body bytes.Buffer
	data []byte    // the body being scanned
	i    int       // the scan position in data
	rest []byte    // the scanned object with its float arrays cut out
	vals []float64 // the values of the float array being scanned
}

func (d *decoder) release() {
	if d.body.Cap() > maxPooledBody || cap(d.rest) > maxPooledBody || cap(d.vals) > maxPooledBody/8 {
		return
	}
	d.body.Reset()
	decoders.Put(d)
}

// errDecline reports a body the scanner leaves whole to encoding/json.
var errDecline = errors.New("server: body left to encoding/json")

// unmarshal decodes data into v with encoding/json alone: an InsertLiterals
// as the InsertRequest it stands for, so its errors are that type's, with
// the decoded floats then rendered as literals.
func unmarshal(data []byte, v any) error {
	l, ok := v.(*InsertLiterals)
	if !ok {
		return json.Unmarshal(data, v)
	}
	if err := json.Unmarshal(data, &l.req); err != nil {
		return err
	}
	l.render()
	return nil
}

// scan decodes data into v when v is one of the request types that carry
// float arrays and the scanner takes the body. The scan cuts the float
// arrays out of the body's object into rest, encoding/json decodes rest into
// v, and then the scanned arrays are set on v. Any error leaves the body to
// encoding/json; v may then hold part of it.
func (d *decoder) scan(data []byte, v any) error {
	d.data, d.i, d.rest = data, 0, d.rest[:0]
	d.ws()
	var (
		set  func()
		err  error
		rest = v // what encoding/json decodes rest into
	)
	switch v := v.(type) {
	case *QueryRequest:
		set, err = d.flat(&v.Series)
	case *ClusterSearchRequest:
		set, err = d.flat(&v.Series)
	case *BatchQueryRequest:
		set, err = d.nested("queries", &v.Queries)
	case *InsertRequest:
		set, err = d.nested("series", &v.Series)
	case *InsertLiterals:
		set, err = d.literals(v)
		rest = &v.req
	case *ClusterInsertRequest:
		set, err = d.entries(&v.Entries)
	default:
		return errDecline
	}
	if err != nil {
		return err
	}
	if d.ws(); d.i != len(d.data) {
		return errDecline // bytes after the value: json.Unmarshal words the error
	}
	if err := json.Unmarshal(d.rest, rest); err != nil {
		return err
	}
	set()
	return nil
}

// flat scans an object whose "series" is one float array.
func (d *decoder) flat(series *[]float64) (set func(), err error) {
	set = func() {}
	err = d.object("series", func([]byte) error {
		vals, err := d.floats()
		set = func() { *series = vals }
		return err
	})
	return set, err
}

// nested scans an object whose member key is an array of float arrays.
func (d *decoder) nested(key string, batch *[][]float64) (set func(), err error) {
	set = func() {}
	err = d.object(key, func([]byte) error {
		var out [][]float64
		set = func() { *batch = out }
		if d.literal("null") {
			return nil
		}
		out = [][]float64{}
		return d.array(func() error {
			vals, err := d.floats()
			out = append(out, vals)
			return err
		})
	})
	return set, err
}

// entries scans a ClusterInsertRequest's object. Its "entries" stay in rest,
// each entry's "series" cut out, so encoding/json makes the entries and set
// puts the scanned series on them.
func (d *decoder) entries(entries *[]ClusterEntry) (set func(), err error) {
	type scanned struct {
		vals []float64
		seen bool
	}
	var found []scanned
	set = func() {
		for i, e := range found {
			if e.seen {
				(*entries)[i].Series = e.vals
			}
		}
	}
	seen := false
	err = d.object("entries", func(key []byte) error {
		// A repeated array decodes into the elements of the first in
		// encoding/json, keeping what the second does not set.
		if seen {
			return errDecline
		}
		seen = true
		d.member(key)
		if d.literal("null") {
			d.rest = append(d.rest, "null"...)
			return nil
		}
		d.rest = append(d.rest, '[')
		err := d.array(func() error {
			if d.rest[len(d.rest)-1] != '[' {
				d.rest = append(d.rest, ',')
			}
			var e scanned
			if d.literal("null") {
				d.rest = append(d.rest, "null"...)
			} else if err := d.object("series", func([]byte) (err error) {
				e.vals, err = d.floats()
				e.seen = true
				return err
			}); err != nil {
				return err
			}
			found = append(found, e)
			return nil
		})
		d.rest = append(d.rest, ']')
		return err
	})
	return set, err
}

// object scans the JSON object at the scan position and appends it to rest,
// except for the members whose key folds to field (ASCII case folding, as
// encoding/json matches a struct field); fn scans each of their values, and
// appends to rest what it wants kept. A key holding an escape or a
// non-ASCII byte is declined: encoding/json folds those further.
func (d *decoder) object(field string, fn func(key []byte) error) error {
	d.rest = append(d.rest, '{')
	err := d.members(func(key []byte, plain bool) error {
		switch {
		case !plain:
			return errDecline
		case asciiEqualFold(key[1:len(key)-1], field):
			return fn(key)
		}
		d.member(key)
		start := d.i
		err := d.skip(0)
		d.rest = append(d.rest, d.data[start:d.i]...)
		return err
	})
	d.rest = append(d.rest, '}')
	return err
}

// members scans the JSON object at the scan position, calling fn at each
// member's value with its quoted key and whether that key is plain.
func (d *decoder) members(fn func(key []byte, plain bool) error) error {
	if !d.eat('{') {
		return errDecline
	}
	d.ws()
	if d.eat('}') {
		return nil
	}
	for {
		start := d.i
		plain, err := d.str()
		if err != nil {
			return err
		}
		key := d.data[start:d.i]
		d.ws()
		if !d.eat(':') {
			return errDecline
		}
		d.ws()
		if err := fn(key, plain); err != nil {
			return err
		}
		d.ws()
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return errDecline
		}
		d.ws()
	}
}

// member appends a member's quoted key and colon to rest, after a comma
// unless it is the object's first.
func (d *decoder) member(key []byte) {
	if d.rest[len(d.rest)-1] != '{' {
		d.rest = append(d.rest, ',')
	}
	d.rest = append(d.rest, key...)
	d.rest = append(d.rest, ':')
}

// array scans the JSON array at the scan position, calling elem at each
// element.
func (d *decoder) array(elem func() error) error {
	if !d.eat('[') {
		return errDecline
	}
	d.ws()
	if d.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		if d.eat(']') {
			return nil
		}
		if !d.eat(',') {
			return errDecline
		}
		d.ws()
	}
}

// floats scans a JSON array of numbers, or null, into a new slice of its
// length: null is nil and [] is empty, as encoding/json leaves them.
func (d *decoder) floats() ([]float64, error) {
	if d.literal("null") {
		return nil, nil
	}
	vals := d.vals[:0]
	err := d.array(func() error {
		start := d.i
		if !d.number() {
			return errDecline
		}
		f, err := strconv.ParseFloat(string(d.data[start:d.i]), 64)
		if err != nil {
			return errDecline
		}
		vals = append(vals, f)
		return nil
	})
	d.vals = vals
	if err != nil {
		return nil, err
	}
	return append(make([]float64, 0, len(vals)), vals...), nil
}

// maxSkipDepth bounds the nesting skip follows; a deeper value is left to
// encoding/json, whose own limit is far above it.
const maxSkipDepth = 512

// skip steps over the JSON value at the scan position, checking its grammar.
func (d *decoder) skip(depth int) error {
	if d.i >= len(d.data) {
		return errDecline
	}
	switch d.data[d.i] {
	case '{', '[':
		if depth == maxSkipDepth {
			return errDecline
		}
		if d.data[d.i] == '{' {
			return d.members(func([]byte, bool) error { return d.skip(depth + 1) })
		}
		return d.array(func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.str()
		return err
	}
	if d.literal("true") || d.literal("false") || d.literal("null") || d.number() {
		return nil
	}
	return errDecline
}

// str steps over the JSON string at the scan position, and reports whether
// it is plain: no escape and no byte outside ASCII.
func (d *decoder) str() (plain bool, err error) {
	if !d.eat('"') {
		return false, errDecline
	}
	plain = true
	for d.i < len(d.data) {
		c := d.data[d.i]
		d.i++
		switch {
		case c == '"':
			return plain, nil
		case c < 0x20:
			return false, errDecline
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if d.i >= len(d.data) {
				return false, errDecline
			}
			e := d.data[d.i]
			d.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if d.i+4 > len(d.data) {
					return false, errDecline
				}
				for _, h := range d.data[d.i : d.i+4] {
					if !isHex(h) {
						return false, errDecline
					}
				}
				d.i += 4
			default:
				return false, errDecline
			}
		}
	}
	return false, errDecline
}

// number steps over a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether there
// was one.
func (d *decoder) number() bool {
	ok, _ := d.numberRange()
	return ok
}

// numberRange is number, and also reports whether the number can be out of
// float64's range: whether it has an exponent part, or 309 or more integer
// digits (a 308-digit integer is below math.MaxFloat64).
func (d *decoder) numberRange() (ok, mayOverflow bool) {
	b, i := d.data, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := digits(b, i+1)
		mayOverflow = j-i >= 309
		i = j
	default:
		return false, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return false, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false, false
		}
		i = j
		mayOverflow = true
	}
	d.i = i
	return true, mayOverflow
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// ws steps over JSON whitespace.
func (d *decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat steps over c if it is next.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal steps over lit if it is next.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.i >= len(lit) && string(d.data[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// asciiEqualFold reports whether key equals field under ASCII case folding.
func asciiEqualFold(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i := range key {
		a, b := key[i], field[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
