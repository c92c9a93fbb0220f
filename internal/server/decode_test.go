package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// referenceDecode is DecodeRequest as encoding/json alone answers it: a
// body over the cap is refused, one under it is json.Unmarshal's, which
// takes one value followed by nothing but whitespace.
func referenceDecode(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil {
		err = json.Unmarshal(data, v)
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

// floatRequests makes a zero value of each request type that carries float
// arrays.
var floatRequests = []func() any{
	func() any { return new(QueryRequest) },
	func() any { return new(ClusterSearchRequest) },
	func() any { return new(BatchQueryRequest) },
	func() any { return new(InsertRequest) },
	func() any { return new(ClusterInsertRequest) },
}

// sameDecode checks that DecodeRequest answers body as referenceDecode
// does, for each of types: the same status and response bytes, and when
// accepted the same value, floats compared bit for bit. It returns the
// status of the last type's answer.
func sameDecode(t *testing.T, types []func() any, body func() io.Reader) (status int) {
	t.Helper()
	for _, mk := range types {
		got, want := mk(), mk()
		gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
		gotOK := DecodeRequest(gotRec, httptest.NewRequest(http.MethodPost, "/", body()), got)
		wantOK := referenceDecode(wantRec, httptest.NewRequest(http.MethodPost, "/", body()), want)
		name := reflect.TypeOf(got).Elem().Name()
		if gotOK != wantOK || gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
			t.Fatalf("%s: accepted %v, %d %q; encoding/json: accepted %v, %d %q",
				name, gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
		}
		if gotOK && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s: decoded %+v, encoding/json %+v", name, got, want)
		}
		status = gotRec.Code
	}
	return status
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so -0
// and 0 differ.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// realRequests are one request of each type that carries float arrays, as
// a client marshals it.
func realRequests() []any {
	lo, hi := int64(3), int64(9)
	return []any{
		QueryRequest{Build: "build-2", Series: []float64{0.25, -1.5e-7, 3, math.Copysign(0, -1)}, K: 5, Exact: true, MinTS: &lo, MaxTS: &hi},
		ClusterSearchRequest{Build: "build-3", Series: []float64{1, 2.5, math.MaxFloat64}, K: 10, Mode: ModeRange, Eps: 0.5, Shards: []int{0, 2}},
		BatchQueryRequest{Build: "build-2", Queries: [][]float64{{1, 2}, {-3.25, 4e-300}}, K: 3},
		InsertRequest{Build: "build-2", Series: [][]float64{{0.1, 0.2}, {5e-324, 1}}, TS: 7, Timestamps: []int64{1, 2}},
		ClusterInsertRequest{Build: "build-4", Entries: []ClusterEntry{{ID: 1, TS: 2, Series: []float64{0.5, 1.5}}, {ID: 3, Series: []float64{}}}},
	}
}

// FuzzDecodeRequest holds DecodeRequest to encoding/json on every body:
// decoded into each request type that carries float arrays, a body is
// accepted with the same value or refused with the same status and error.
// The committed corpus (testdata/fuzz/FuzzDecodeRequest) holds edge cases of
// JSON's number grammar, null and [], folded, escaped and repeated keys,
// whitespace and trailing bytes (refused unless whitespace); f.Add adds
// realRequests.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range realRequests() {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, floatRequests, func() io.Reader { return bytes.NewReader(body) })
	})
}

// TestScannerTakesRequests: the scanner, not encoding/json alone, decodes a
// marshalled request of each type, so FuzzDecodeRequest compares the two.
func TestScannerTakesRequests(t *testing.T) {
	for _, req := range realRequests() {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		v := reflect.New(reflect.TypeOf(req))
		if err := new(decoder).scan(body, v.Interface()); err != nil {
			t.Errorf("%T: %v", req, err)
		} else if !sameBits(v.Elem(), reflect.ValueOf(req)) {
			t.Errorf("%T: scanned %+v, want %+v", req, v.Elem(), req)
		}
	}
}

// TestDecodeRequestAtTheCap: a body over MaxRequestBytes is 413 whatever
// it holds — a value complete before the cap, or malformed before it — and
// one at the cap decodes; each as the reference answers it.
func TestDecodeRequestAtTheCap(t *testing.T) {
	series := `{"series":[[1,2]],"ts":3`
	for name, tc := range map[string]struct {
		body func() io.Reader
		want int
	}{
		"value at the cap":   {func() io.Reader { return paddedBody(series, MaxRequestBytes) }, http.StatusOK},
		"value over the cap": {func() io.Reader { return paddedBody(series, MaxRequestBytes+1) }, http.StatusRequestEntityTooLarge},
		"value then bytes past": {func() io.Reader {
			return io.MultiReader(strings.NewReader(series+"}"), paddedBody("{", MaxRequestBytes))
		}, http.StatusRequestEntityTooLarge},
		"malformed then past cap": {func() io.Reader { return paddedBody(`{"series":[[1,x]]`, MaxRequestBytes+1) },
			http.StatusRequestEntityTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			if got := sameDecode(t, floatRequests[3:4], tc.body); got != tc.want {
				t.Fatalf("status %d, want %d", got, tc.want)
			}
		})
	}
}

// TestDecodeRequestOneValue: only whitespace may follow the body's one JSON
// value; trailing bytes or a second value are 400, for a request the
// scanner takes and for one encoding/json decodes alone.
func TestDecodeRequestOneValue(t *testing.T) {
	types := append(slices.Clone(floatRequests), func() any { return new(BuildRequest) })
	for body, want := range map[string]int{
		`{"build":"b"}`:               http.StatusOK,
		"{\"build\":\"b\"} \t\r\n":    http.StatusOK,
		`{"build":"b"}xyz`:            http.StatusBadRequest, // as corpus row trailing-bytes
		`{"build":"b"} {"build":"c"}`: http.StatusBadRequest, // as corpus row trailing-value
		`{"build":"b"},`:              http.StatusBadRequest,
		`{"build":"b"} null`:          http.StatusBadRequest,
		"{\"build\":\"b\"}\u00a0":     http.StatusBadRequest,
	} {
		for i := range types {
			if got := sameDecode(t, types[i:i+1], func() io.Reader { return strings.NewReader(body) }); got != want {
				t.Errorf("%q into type %d: status %d, want %d", body, i, got, want)
			}
		}
	}
}
