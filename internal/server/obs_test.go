package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestTracedQueryAgreesWithStats checks the per-query trace against the
// build's cumulative accounting, on a CTree (leaves skipped by its scan), a
// materialized CLSM (runs skipped by the planner, pages by the run scans;
// seven entries to a page keep page envelopes narrow enough that a query
// near a member rules some out) and a materialized ADS+ (leaves its
// best-first traversal prunes): the trace's planned-skip total must equal
// the response's planned_skips, and the responses' together the build's
// planned_skips in /api/stats; its I/O must equal the response's disk
// accounting, and some unit must actually have been probed.
func TestTracedQueryAgreesWithStats(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 3000, Len: 64, Seed: 7}, &d)
	// A member of the dataset: its neighbours bound the search tightly at
	// once, so the scans find dead pages to skip.
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 3000, Len: 64, Seed: 7})
	q, err := ds.Get(1234)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		variant   string
		skipKinds []string // kinds whose skips the query must show
	}{{"CTree", nil}, {"CLSMFull", []string{"page"}}, {"ADSFull", []string{"leaf"}}} {
		var b BuildResponse
		if code := postJSON(t, ts.URL+"/api/build", BuildRequest{
			Dataset: d.ID, Variant: c.variant, Segments: 8, Bits: 8, MemBudget: 16 << 10,
		}, &b); code != http.StatusCreated {
			t.Fatalf("%s: build status %d", c.variant, code)
		}
		// Twice traced: the second query runs on a warm build.
		var skips int64
		for i := 0; i < 2; i++ {
			var qr QueryResponse
			if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true, Trace: true}, &qr); code != http.StatusOK {
				t.Fatalf("%s: traced query status %d", c.variant, code)
			}
			tr := qr.Trace
			if tr == nil {
				t.Fatalf("%s: traced query returned no trace", c.variant)
			}
			if tr.Mode != "exact" || tr.K != 2 || tr.Kernel == "" {
				t.Fatalf("%s: trace header mode=%q k=%d kernel=%q", c.variant, tr.Mode, tr.K, tr.Kernel)
			}
			if tr.PlannedSkips != qr.PlannedSkips {
				t.Fatalf("%s: trace planned_skips %d != response planned_skips %d", c.variant, tr.PlannedSkips, qr.PlannedSkips)
			}
			skips += qr.PlannedSkips
			if tr.IO.Cost != qr.Cost || tr.IO.SeqReads != qr.SeqIO || tr.IO.RandReads != qr.RandIO {
				t.Fatalf("%s: trace io %+v disagrees with response cost=%v seq=%d rand=%d", c.variant, tr.IO, qr.Cost, qr.SeqIO, qr.RandIO)
			}
			var probed int64
			skipped := map[string]int64{}
			for _, kc := range tr.Kinds {
				probed += kc.Probed
				skipped[kc.Kind] += kc.Skipped
				if kc.Skipped < 0 || kc.Probed < 0 {
					t.Fatalf("%s: negative kind counts: %+v", c.variant, kc)
				}
			}
			if probed == 0 {
				t.Fatalf("%s: trace records no probed units: %+v", c.variant, tr.Kinds)
			}
			for _, k := range c.skipKinds {
				if skipped[k] == 0 {
					t.Fatalf("%s: trace records no skipped %q units: %+v", c.variant, k, tr.Kinds)
				}
			}
			if tr.Candidates.Verified == 0 {
				t.Fatalf("%s: exact query verified no candidates: %+v", c.variant, tr.Candidates)
			}
			if len(tr.Phases) == 0 {
				t.Fatalf("%s: trace has no phases", c.variant)
			}
		}
		var st StatsResponse
		if code := getJSON(t, ts.URL+"/api/stats?build="+b.ID, &st); code != http.StatusOK {
			t.Fatalf("%s: stats status %d", c.variant, code)
		}
		if st.Planner.PlannedSkips != skips {
			t.Fatalf("%s: stats report %d planned skips, the two traced queries %d", c.variant, st.Planner.PlannedSkips, skips)
		}
		// Untraced queries must not carry a trace.
		var plain QueryResponse
		if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &plain); code != http.StatusOK {
			t.Fatalf("%s: query status %d", c.variant, code)
		}
		if plain.Trace != nil {
			t.Fatalf("%s: untraced query returned a trace: %+v", c.variant, plain.Trace)
		}
		// ?trace=1 on the URL works without the body field.
		var viaURL QueryResponse
		if code := postJSON(t, ts.URL+"/api/query?trace=1", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &viaURL); code != http.StatusOK {
			t.Fatalf("%s: ?trace=1 status %d", c.variant, code)
		}
		if viaURL.Trace == nil {
			t.Fatalf("%s: ?trace=1 returned no trace", c.variant)
		}
	}
}

// TestConcurrentQueriesKeepTheirAccounting sends eight identical exact
// queries at once to a CTree and to a CLSM build: each response's
// planned_skips and each trace's per-kind counts must be what the same query
// answers alone, whatever the others skip meanwhile. The builds search
// serially (the default parallelism), so one query's plan is deterministic;
// I/O is the build's disk delta and is not compared.
func TestConcurrentQueriesKeepTheirAccounting(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 3000, Len: 64, Seed: 7}, &d)
	ds, _ := gen.Astronomy(gen.AstronomyConfig{N: 3000, Len: 64, Seed: 7})
	q, err := ds.Get(1234)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []string{"CTree", "CLSMFull"} {
		var b BuildResponse
		if code := postJSON(t, ts.URL+"/api/build", BuildRequest{
			Dataset: d.ID, Variant: variant, Segments: 8, Bits: 8, MemBudget: 16 << 10,
		}, &b); code != http.StatusCreated {
			t.Fatalf("%s: build status %d", variant, code)
		}
		body, err := json.Marshal(QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		query := func() (QueryResponse, error) {
			var qr QueryResponse
			resp, err := http.Post(ts.URL+"/api/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return qr, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return qr, fmt.Errorf("status %d", resp.StatusCode)
			}
			return qr, json.NewDecoder(resp.Body).Decode(&qr)
		}
		solo, err := query()
		if err != nil {
			t.Fatalf("%s: solo query: %v", variant, err)
		}
		if solo.PlannedSkips == 0 {
			t.Fatalf("%s: fixture: the query skips nothing alone", variant)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				qr, err := query()
				if err != nil {
					t.Errorf("%s: concurrent query: %v", variant, err)
					return
				}
				if qr.Trace == nil {
					t.Errorf("%s: concurrent traced query returned no trace", variant)
				} else if qr.PlannedSkips != solo.PlannedSkips || !reflect.DeepEqual(qr.Trace.Kinds, solo.Trace.Kinds) {
					t.Errorf("%s: concurrent query answered planned_skips %d, kinds %+v; alone %d, %+v",
						variant, qr.PlannedSkips, qr.Trace.Kinds, solo.PlannedSkips, solo.Trace.Kinds)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

// TestMetricsExposition drives a few requests and requires the node's
// /metrics to expose the core counters, histograms, and per-build gauges.
func TestMetricsExposition(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "randomwalk", N: 200, Len: 32, Seed: 3}, &d)
	var b BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8}, &b)
	q := make([]float64, 32)
	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 3, Exact: true}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`coconut_queries_total{mode="exact"} 1`,
		`coconut_query_latency_seconds_count{mode="exact"} 1`,
		`coconut_query_latency_seconds_bucket{mode="exact",le="+Inf"} 1`,
		`coconut_query_io_cost_count{mode="exact"} 1`,
		"coconut_builds 1",
		`coconut_build_series{build="` + b.ID + `",variant="CTree"} 200`,
		`coconut_build_io_cost{build="` + b.ID + `"}`,
		"coconut_kernel_info{kernel=",
		"# TYPE coconut_query_latency_seconds histogram",
		"# TYPE coconut_queries_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

// TestSlowQueryLog sets a zero-ish threshold so every request is slow,
// then reads the log back over HTTP.
func TestSlowQueryLog(t *testing.T) {
	s := New()
	s.SetSlowQuery(time.Nanosecond)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "randomwalk", N: 100, Len: 32, Seed: 1}, &d)
	var b BuildResponse
	postJSON(t, ts.URL+"/api/build", BuildRequest{Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8}, &b)
	q := make([]float64, 32)
	var qr QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &qr); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	var sl struct {
		ThresholdMicros int64 `json:"threshold_micros"`
		Total           int64 `json:"total"`
		Entries         []struct {
			Kind  string  `json:"kind"`
			Build string  `json:"build"`
			Mode  string  `json:"mode"`
			Cost  float64 `json:"cost"`
		} `json:"entries"`
	}
	if code := getJSON(t, ts.URL+"/api/slowlog", &sl); code != http.StatusOK {
		t.Fatalf("slowlog status %d", code)
	}
	if sl.Total == 0 || len(sl.Entries) == 0 {
		t.Fatalf("slow log empty after a slow query: total=%d entries=%d", sl.Total, len(sl.Entries))
	}
	e := sl.Entries[0]
	if e.Kind != "query" || e.Build != b.ID || e.Mode != "exact" {
		t.Fatalf("slow entry = %+v", e)
	}
}
