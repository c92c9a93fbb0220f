package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTracedQueryAgreesWithStats checks the per-query trace against the
// build's cumulative accounting: the trace's planner-skip total must equal
// the response's planned_skips delta, its I/O must equal the response's
// disk accounting, and some unit must actually have been probed.
func TestTracedQueryAgreesWithStats(t *testing.T) {
	ts := newTestServer(t)
	var d DatasetResponse
	postJSON(t, ts.URL+"/api/datasets", DatasetRequest{Kind: "astronomy", N: 400, Len: 64, Seed: 7}, &d)
	var b BuildResponse
	if code := postJSON(t, ts.URL+"/api/build", BuildRequest{
		Dataset: d.ID, Variant: "CTree", Segments: 8, Bits: 8, MemBudget: 16 << 10,
	}, &b); code != http.StatusCreated {
		t.Fatalf("build status %d", code)
	}
	q := make([]float64, 64)
	for i := range q {
		q[i] = float64(i % 5)
	}
	// Twice traced: the planner counter the second delta reads is warm.
	for i := 0; i < 2; i++ {
		var qr QueryResponse
		if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true, Trace: true}, &qr); code != http.StatusOK {
			t.Fatalf("traced query status %d", code)
		}
		tr := qr.Trace
		if tr == nil {
			t.Fatal("traced query returned no trace")
		}
		if tr.Mode != "exact" || tr.K != 2 || tr.Kernel == "" {
			t.Fatalf("trace header mode=%q k=%d kernel=%q", tr.Mode, tr.K, tr.Kernel)
		}
		if tr.PlannedSkips != qr.PlannedSkips {
			t.Fatalf("trace planned_skips %d != response planned_skips %d", tr.PlannedSkips, qr.PlannedSkips)
		}
		if tr.IO.Cost != qr.Cost || tr.IO.SeqReads != qr.SeqIO || tr.IO.RandReads != qr.RandIO {
			t.Fatalf("trace io %+v disagrees with response cost=%v seq=%d rand=%d", tr.IO, qr.Cost, qr.SeqIO, qr.RandIO)
		}
		var probed int64
		for _, kc := range tr.Kinds {
			probed += kc.Probed
			if kc.Skipped < 0 || kc.Probed < 0 {
				t.Fatalf("negative kind counts: %+v", kc)
			}
		}
		if probed == 0 {
			t.Fatalf("trace records no probed units: %+v", tr.Kinds)
		}
		if tr.Candidates.Verified == 0 {
			t.Fatalf("exact query verified no candidates: %+v", tr.Candidates)
		}
		if len(tr.Phases) == 0 {
			t.Fatalf("trace has no phases")
		}
	}
	// Untraced queries must not carry a trace.
	var plain QueryResponse
	if code := postJSON(t, ts.URL+"/api/query", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &plain); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced query returned a trace: %+v", plain.Trace)
	}
	// ?trace=1 on the URL works without the body field.
	var viaURL QueryResponse
	if code := postJSON(t, ts.URL+"/api/query?trace=1", QueryRequest{Build: b.ID, Series: q, K: 2, Exact: true}, &viaURL); code != http.StatusOK {
		t.Fatalf("?trace=1 status %d", code)
	}
	if viaURL.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
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
