// Command coconut-server runs the Coconut Palm algorithms server (Figure 1
// of the demo paper): a REST/JSON web service exposing dataset generation,
// index construction across all variants, approximate/exact windowed
// queries, the recommender, and heat-map access-pattern visualization.
//
// Usage:
//
//	coconut-server -addr :8734
//
// Then, for example:
//
//	curl -s localhost:8734/api/health
//	curl -s -X POST localhost:8734/api/datasets -d '{"kind":"astronomy","n":10000,"len":256}'
//	curl -s -X POST localhost:8734/api/build -d '{"dataset":"ds-1","variant":"CTree"}'
//	curl -s -X POST localhost:8734/api/recommend -d '{"streaming":true,"small_windows":true}'
//
// The server shuts down gracefully on SIGINT or SIGTERM: the listener
// stops, in-flight requests drain, and every build's background machinery
// (WALs, compaction workers, file-backed storage) flushes and closes.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/assemble"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8734", "listen address")
	// Serial by default so out-of-the-box build and query I/O accounting
	// reproduces the paper's single-stream numbers; opt into the parallel
	// engine per server (-parallelism) or per build request.
	par := flag.Int("parallelism", 1, "default per-query worker pool size for builds (1 = serial, matching the paper's accounting; -1 = one worker per CPU)")
	shards := flag.Int("shards", 0, "default shard count for builds (0 or 1 = unsharded; N > 1 hash-partitions each build across N shards, queries fan across them)")
	cache := flag.Int64("cache", 0, "default buffer-pool size in bytes for builds (0 = uncached, the paper-faithful accounting; N > 0 serves hot pages from a shared cache and charges only misses)")
	walRoot := flag.String("wal", "", "WAL root directory: each CLSM build keeps a write-ahead log in its own subdirectory, making POST /api/insert durable (empty = no WALs)")
	compactWorkers := flag.Int("compact-workers", 0, "default background-merge workers for CLSM builds (0 = inline merges; N > 0 runs level merges off the insert path)")
	storageRoot := flag.String("storage", "", "storage root directory: builds default to the file-backed page store, each in its own subdirectory; results are byte-identical to the simulated disk (empty = simulated disk only)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this private address (e.g. localhost:6060; empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "record queries and inserts slower than this in the slow-query log at GET /api/slowlog (0 = disabled)")
	flag.Parse()
	s := server.New()
	s.SetWALRoot(*walRoot)
	s.SetStorageRoot(*storageRoot)
	// Reject bad defaults at startup: otherwise every build request that
	// leaves the field unset would fail with a 400 blaming the client.
	if err := s.SetDefaults(assemble.Spec{
		Parallelism:       *par,
		Shards:            *shards,
		CacheBytes:        *cache,
		CompactionWorkers: *compactWorkers,
	}); err != nil {
		log.Fatalf("coconut-server: bad default (-parallelism, -shards, -cache, -compact-workers): %v", err)
	}
	s.SetSlowQuery(*slowQuery)
	if *pprofAddr != "" {
		psrv, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatalf("coconut-server: pprof: %v", err)
		}
		defer psrv.Close()
		log.Printf("coconut-server: pprof listening on %s", *pprofAddr)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("coconut-palm algorithms server listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		log.Printf("coconut-server: shutting down (in-flight requests drain, builds flush)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("coconut-server: HTTP shutdown: %v", err)
		}
	}
	// Close builds after the listener stops: WALs sync, compaction workers
	// drain, file-backed storage fsyncs. Durable state survives restart.
	if err := s.Close(); err != nil {
		log.Printf("coconut-server: closing builds: %v", err)
	}
}
