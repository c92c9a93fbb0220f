package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
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

// drainRequest is the router's DrainRequest (internal/cluster, which
// imports this package), member for member.
type drainRequest struct {
	Node    string `json:"node"`
	Undrain bool   `json:"undrain,omitempty"`
}

// plainRequests makes a zero value of each request type without float
// arrays, which encoding/json decodes alone.
var plainRequests = []func() any{
	func() any { return new(BuildRequest) },
	func() any { return new(DatasetRequest) },
	func() any { return new(RecommendRequest) },
	func() any { return new(drainRequest) },
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

// sameLiterals checks that DecodeRequest answers body into the router's
// InsertLiterals as referenceDecode answers it into an InsertRequest: the
// same status and response bytes, and when accepted the same members, each
// literal holding its series' numbers, as many and parsing to the same
// bits, with no whitespace and no token over maxFloatBytes.
func sameLiterals(t *testing.T, body func() io.Reader) {
	t.Helper()
	var (
		got  InsertLiterals
		want InsertRequest
	)
	gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
	gotOK := DecodeRequest(gotRec, httptest.NewRequest(http.MethodPost, "/", body()), &got)
	wantOK := referenceDecode(wantRec, httptest.NewRequest(http.MethodPost, "/", body()), &want)
	if gotOK != wantOK || gotRec.Code != wantRec.Code || !bytes.Equal(gotRec.Body.Bytes(), wantRec.Body.Bytes()) {
		t.Fatalf("InsertLiterals: accepted %v, %d %q; encoding/json into InsertRequest: accepted %v, %d %q",
			gotOK, gotRec.Code, gotRec.Body, wantOK, wantRec.Code, wantRec.Body)
	}
	if !gotOK {
		return
	}
	batch := want.Series
	want.Series = nil
	if !sameBits(reflect.ValueOf(got.req), reflect.ValueOf(want)) {
		t.Fatalf("InsertLiterals decoded %+v, encoding/json %+v", got.req, want)
	}
	if (got.Series == nil) != (batch == nil) || len(got.Series) != len(batch) || len(got.counts) != len(batch) {
		t.Fatalf("InsertLiterals: %d literals (nil %v), %d counts; encoding/json: %d series (nil %v)",
			len(got.Series), got.Series == nil, len(got.counts), len(batch), batch == nil)
	}
	for i, lit := range got.Series {
		vals, err := readLiteral(lit)
		if err != nil {
			t.Fatalf("literal %d %q: %v", i, lit, err)
		}
		if got.counts[i] != len(batch[i]) || !sameBits(reflect.ValueOf(vals), reflect.ValueOf(batch[i])) {
			t.Fatalf("literal %d %q counted %d, reads %v; encoding/json: %v", i, lit, got.counts[i], vals, batch[i])
		}
	}
}

// readLiteral parses a literal back into floats: "null" is nil; otherwise
// it must be "[", numbers in JSON's grammar of at most maxFloatBytes bytes
// each, separated by single commas, "]".
func readLiteral(lit []byte) ([]float64, error) {
	if string(lit) == "null" {
		return nil, nil
	}
	if len(lit) < 2 || lit[0] != '[' || lit[len(lit)-1] != ']' {
		return nil, errors.New("not one array")
	}
	vals := []float64{}
	if len(lit) == 2 {
		return vals, nil
	}
	for _, tok := range bytes.Split(lit[1:len(lit)-1], []byte(",")) {
		if d := (&decoder{data: tok}); len(tok) > maxFloatBytes || !d.number() || d.i != len(tok) {
			return nil, fmt.Errorf("token %q is not one number of at most %d bytes", tok, maxFloatBytes)
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, f)
	}
	return vals, nil
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
// decoded into each request type, a body is accepted with the same value
// or refused with the same status and error. Decoded into the router's
// InsertLiterals, it is accepted exactly when an InsertRequest is, with
// literals that read back to the same floats (sameLiterals). The committed
// corpus (testdata/fuzz/FuzzDecodeRequest) holds edge cases of JSON's
// number grammar (literal-* among them: spellings a literal keeps, re-renders
// or leaves to encoding/json), null and [], folded, escaped and repeated
// keys, whitespace and trailing bytes (refused unless whitespace); f.Add
// adds realRequests and one request of each type without float arrays.
func FuzzDecodeRequest(f *testing.F) {
	reqs := append(realRequests(),
		BuildRequest{Dataset: "ds-1", Variant: "CLSM", FillFactor: 0.5, MemBudget: 65536, Parallelism: -1},
		DatasetRequest{Kind: "astronomy", N: 6000, Len: 128, FracEvent: 0.05, Seed: 7},
		RecommendRequest{Streaming: true, ExpectedQueries: 100, UpdateRate: 0.25, SmallWindows: true},
		drainRequest{Node: "a", Undrain: true},
	)
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		read := func() io.Reader { return bytes.NewReader(body) }
		sameDecode(t, floatRequests, read)
		sameLiterals(t, read)
		sameDecode(t, plainRequests, read)
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

// TestScannerTakesLiterals: the scanner, not encoding/json alone, decodes
// a marshalled insert into the router's InsertLiterals, each literal the
// bytes json.Marshal writes for its series.
func TestScannerTakesLiterals(t *testing.T) {
	req := realRequests()[3].(InsertRequest)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var l InsertLiterals
	if err := new(decoder).scan(body, &l); err != nil {
		t.Fatal(err)
	}
	for i, s := range req.Series {
		want, _ := json.Marshal(s)
		if i >= len(l.Series) || !bytes.Equal(l.Series[i], want) || l.counts[i] != len(s) {
			t.Fatalf("series %d: literals %q, counts %v, want %s", i, l.Series, l.counts, want)
		}
	}
	if !slices.Equal(l.Stamps(), req.Stamps()) {
		t.Fatalf("stamps %v, want %v", l.Stamps(), req.Stamps())
	}
}

// TestLiteralSpellings: the router's InsertLiterals keeps a token as the
// client spelled it, without the whitespace around it; re-renders one
// wider than maxFloatBytes as json.Marshal renders its value; and leaves a
// body with a token out of float64's range to encoding/json, which refuses
// it as it refuses the InsertRequest.
func TestLiteralSpellings(t *testing.T) {
	maxFloat := strconv.FormatFloat(math.MaxFloat64, 'f', -1, 64) // 309 digits
	nines := strings.Repeat("9", 309)
	marshalled := func(tok string) string {
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal([]float64{f})
		return string(b)
	}
	for _, tc := range []struct {
		series, want string
	}{
		{"[1.0, 1E2 ,-0,\n\t1e-400]", "[1.0,1E2,-0,1e-400]"},
		{"[ ]", "[]"},
		{"null", "null"},
		{"[-0.0000012345678901234567]", "[-0.0000012345678901234567]"},
		{"[" + maxFloat + "]", "[1.7976931348623157e+308]"},
		{"[" + nines[:308] + "]", marshalled(nines[:308])},
		{"[-0.0000012345678901234567000, 0.10000000000000000000000001]", "[-0.0000012345678901234567,0.1]"},
		{"[" + nines + "]", ""},
		{"[1e400]", ""},
	} {
		body := `{"series":[` + tc.series + `],"ts":3}`
		sameLiterals(t, func() io.Reader { return strings.NewReader(body) })
		var l InsertLiterals
		ok := DecodeRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body)), &l)
		if ok != (tc.want != "") || ok && string(l.Series[0]) != tc.want {
			t.Errorf("%.40s: accepted %v, literals %q; want %q", tc.series, ok, l.Series, tc.want)
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
