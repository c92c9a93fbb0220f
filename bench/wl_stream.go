package main

import (
	"fmt"
	"time"

	coconut "repro"
	"repro/internal/gen"
)

// stream_window: the paper's streaming scenario. One thread alternates
// arrivals with window queries on the simulated disk, so every count
// repeats exactly, and a read gain bought with ingest cost shows.
const (
	streamBatches     = 800 // per pass, at the reference run length
	streamPasses      = 4   // identical passes per run
	streamBatchSize   = 256
	streamLen         = 64
	streamBuffer      = 4096
	streamQuakeProb   = 0.05
	streamRound       = 4  // batches between query rounds
	streamPerRound    = 3  // exact window queries per round
	streamWindow      = 40 // batches a window query spans
	streamWholeEvery  = 16 // every 16th query spans the whole history
	streamTemplates   = 64
	streamOracle      = 60
	streamSetupRepeat = 3
)

// streamPassResult is what one pass over the arrivals measured.
type streamPassResult struct {
	series            int
	batches, queries  []timed
	approxMS          []float64
	io                ioDelta
	found, of         int
	sealMS            float64
	final             coconut.Stats
	partitions, count int
	wrong             []string
	attempted         int64
}

// streamPass ingests the batches into a fresh BTP stream, querying as it
// goes, and checks sampled answers against the oracle. The yardstick is read
// twice per group: before its batches and before its queries.
func streamPass(e *env, tr *tracer, parent int32, batches []gen.Batch, templates [][]float64) (*streamPassResult, error) {
	st, err := coconut.NewStream(coconut.BTP, coconut.Options{
		SeriesLen: streamLen, Materialized: true, BufferEntries: streamBuffer, Parallelism: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("NewStream: %w", err)
	}
	defer st.Close()
	out := &streamPassResult{}
	var znormed [][]float64
	var stamps []int64
	rounds := len(batches) / streamRound
	oracleEvery := max(1, rounds*streamPerRound/streamOracle)
	qi := 0
	var slow float64
	for b, batch := range batches {
		if b%streamRound == 0 {
			slow = e.yard.read()
		}
		id := tr.begin(parent, "facade.Ingest.batch", int64(b))
		t := time.Now()
		for _, s := range batch.Series {
			if _, err := st.Ingest(s, batch.TS); err != nil {
				return nil, fmt.Errorf("Ingest: %w", err)
			}
		}
		took := time.Since(t)
		tr.end(id)
		out.batches = append(out.batches, timed{took, slow})
		out.series += len(batch.Series)
		for _, s := range batch.Series {
			znormed = append(znormed, znorm(s))
			stamps = append(stamps, batch.TS)
		}
		if b%streamRound != streamRound-1 {
			continue
		}
		slow = e.yard.read()
		for j := 0; j < streamPerRound; j++ {
			q := templates[qi%len(templates)]
			qi++
			lo, hi := batch.TS-streamWindow+1, batch.TS
			if lo < 0 || qi%streamWholeEvery == 0 {
				lo = 0
			}
			id := tr.begin(parent, "facade.SearchWindow", int64(qi))
			before, t := st.Stats(), time.Now()
			ms, err := st.SearchWindow(q, topK, lo, hi)
			took := time.Since(t)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("SearchWindow: %w", err)
			}
			out.io.add(statsDelta(before, st.Stats()))
			out.queries = append(out.queries, timed{took, slow})
			exact := fromMatches(ms)
			if qi%oracleEvery == 0 {
				all := scan(znormed, stamps, q, func(ts int64) bool { return ts >= lo && ts <= hi })
				if err := checkKNN(exact, all, topK); err != nil {
					out.wrong = append(out.wrong, fmt.Sprintf("stream window query %d [%d,%d]: %v", qi, lo, hi, err))
				}
			}
			if j != 0 {
				continue
			}
			id = tr.begin(parent, "facade.SearchApprox", int64(qi))
			t = time.Now()
			ams, err := st.SearchApprox(q, topK, lo, hi)
			out.approxMS = append(out.approxMS, time.Since(t).Seconds()*1e3)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("SearchApprox: %w", err)
			}
			f, o := recallAt(exact, fromMatches(ams))
			out.found, out.of = out.found+f, out.of+o
		}
	}
	id := tr.begin(parent, "facade.Seal", 0)
	t := time.Now()
	if err := st.Seal(); err != nil {
		return nil, fmt.Errorf("Seal: %w", err)
	}
	out.sealMS = time.Since(t).Seconds() * 1e3
	tr.end(id)
	out.final = st.Stats()
	out.partitions, out.count = st.Partitions(), st.Count()
	out.attempted = int64(len(batches)+len(out.queries)+len(out.approxMS)) + 1
	return out, nil
}

// wallMS is the uncalibrated times in milliseconds.
func wallMS(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall.Seconds() * 1e3
	}
	return out
}

func runStream(e *env, res *runResult) error {
	root := e.tr.begin(0, wlStream, 0)
	defer e.tr.end(root)

	nBatches := e.scaled(streamBatches)
	nBatches = max(nBatches-nBatches%streamRound, streamRound)
	setup := e.tr.begin(root, "setup", 0)
	var batches []gen.Batch
	var templates [][]float64
	var generated []longOp
	for i := 0; i < streamSetupRepeat; i++ {
		g, _ := e.yard.timeLong(func() error {
			batches = gen.Seismic(gen.SeismicConfig{
				Batches: nBatches, BatchSize: streamBatchSize, Len: streamLen,
				QuakeProb: streamQuakeProb, Seed: e.rng(1).Int63(),
			})
			templates = templates[:0]
			for _, q := range gen.TemplateQueries(gen.TemplateEarthquake, streamLen, streamTemplates, 0.3, e.rng(2).Int63()) {
				templates = append(templates, q)
			}
			return nil
		})
		generated = append(generated, g)
	}
	e.tr.end(setup)
	var setups []float64
	for _, g := range generated {
		setups = append(setups, e.yard.settle(g).seconds())
	}
	res.set("setup_s", median(setups))

	report := func(p *streamPassResult) bool {
		res.ops(p.attempted, 0)
		for _, w := range p.wrong {
			res.wrong("%s", w)
		}
		return len(p.wrong) == 0
	}

	if e.traced {
		plain, err := streamPass(e, nil, 0, batches, templates)
		if err != nil {
			return err
		}
		pass := e.tr.begin(root, "stream", 0)
		spanned, err := streamPass(e, e.tr, pass, batches, templates)
		e.tr.end(pass)
		if err != nil {
			return err
		}
		if report(plain) && report(spanned) {
			ingestMS, queryMS := wallMS(spanned.batches), wallMS(spanned.queries)
			n := float64(len(queryMS))
			res.set("harness.trace_overhead_share", median(replay{spanned.queries}.perOp())/median(replay{plain.queries}.perOp())-1)
			res.set("harness.box_slowdown", replay{spanned.queries}.boxSlowdown())
			res.set("index.planned_skips_per_query_window", float64(spanned.io.skips)/n)
			res.setReads(spanned.io, n)
			res.set("stream.partitions_final", float64(spanned.partitions))
			res.set("stream.ingest_ns_per_series", 1e6*sum(ingestMS)/float64(spanned.series))
			res.set("stream.seal_ms", spanned.sealMS)
			res.set("build_s", (sum(ingestMS)+spanned.sealMS)/1e3)
			res.setMedian("approx_p50_ms", spanned.approxMS)
			res.setTail("insert_p99_ms", ingestMS)
			// Every query of this workload runs between arrivals, so its query
			// tail is its mixed-load tail.
			res.setTail("mixed_query_p99_ms", queryMS)
		}
		return runProbes(e, res, root, batchSeries(batches, probeSample), streamLen)
	}

	// The same deterministic pass, streamPasses times over into fresh
	// streams: every batch and every query is the same operation in every
	// pass, so its time is the median over the passes, and the counts must
	// not differ between the passes at all.
	var p *streamPassResult
	var ingests, queries replay
	for i := 0; i < streamPasses; i++ {
		next, err := streamPass(e, nil, 0, batches, templates)
		if err != nil {
			return err
		}
		if !report(next) {
			return nil
		}
		if p != nil && (next.io != p.io || next.final != p.final || next.found != p.found || next.partitions != p.partitions) {
			res.wrong("stream pass %d counted differently from pass %d: io %+v vs %+v, stats %+v vs %+v", i, i-1, next.io, p.io, next.final, p.final)
			return nil
		}
		p = next
		ingests, queries = append(ingests, p.batches), append(queries, p.queries)
	}
	res.set("ingest_series_per_s", float64(p.series)/(sum(ingests.perOp())/1e3))
	res.note("ingest: %d batches x %d passes; uncalibrated median %.4g ms per batch, box slowdown %.3f", len(p.batches), len(ingests), ingests.rawMedian(), ingests.boxSlowdown())
	res.setQueries(queries)
	res.set("approx_recall_at_10", float64(p.found)/float64(p.of))
	res.setReads(p.io, float64(len(p.queries)))
	res.setSpace(p.final, 0, p.count, streamLen)
	return nil
}

// batchSeries returns the first n series of the arrivals.
func batchSeries(batches []gen.Batch, n int) [][]float64 {
	var out [][]float64
	for _, b := range batches {
		for _, s := range b.Series {
			if len(out) == n {
				return out
			}
			out = append(out, s)
		}
	}
	return out
}
