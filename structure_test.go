package coconut

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"strings"
	"testing"
)

// A structure rule names a concept this codebase keeps in one place, and its
// rows find a second copy growing back. A row is one RE2 pattern matched
// against each line of one set of Go files; a line it matches in a file of
// that set, outside the row's allowed paths, is a hit. A new rule, or a new
// way for an old one to be broken, is one more entry here.
type structureRule struct {
	name string // the concept that exists once
	why  string // what a hit is
	msg  string // where a hit's code belongs
	rows []structureRow
}

type structureRow struct {
	pat string
	// in lists the files the row reads: an entry ending in "/" takes every
	// Go file beneath that directory, any other entry is a path.Match
	// pattern ("internal/run/*.go" is one package's own files). An empty
	// list reads the whole checkout, bench/ included.
	in []string
	// tests reads _test.go files too.
	tests bool
	// allow exempts files, its entries read as in's are; exceptLine
	// exempts a line it matches, and allowFunc a hit inside a top-level
	// func whose "path:name" it matches.
	allow      []string
	exceptLine string
	allowFunc  string
	// want, when set, makes the row a count: the checkout holds exactly
	// want hits. Every mutant adds a hit, so a mutant fails a count too.
	want int
	// mutant is a file of the row's set (path, source) the row must flag.
	mutant [2]string

	re, except, fn *regexp.Regexp
	needles        [][]byte
}

var structureRules = []structureRule{
	{
		name: "One planned-probe executor",
		why:  "index.ProbeUnits is the one place that sorts a probe plan; a SortPlan call anywhere else is a hand-rolled copy of it",
		msg:  "SortPlan called outside internal/index (use index.ProbeUnits)",
		rows: []structureRow{
			{pat: `SortPlan\(`, allow: []string{"internal/index/"},
				mutant: [2]string{"internal/ctree/search.go", "\tindex.SortPlan(plan)"}},
		},
	},
	{
		name: "One search tally",
		why:  "a search's unit outcomes are counted once, into index.SearchCtx.Tally; a skip counter, per-kind trace aggregates, a buffer evaluator or a window filter outside the count is a second count",
		msg:  "a search's units counted outside its record (count into index.SearchCtx.Tally; bound a window-disjoint unit by index.Pruner.UnitBoundSq)",
		rows: []structureRow{
			{pat: `NoteSkips\(|NoteProbes\(|\.Skips\(\)|ScanBuffer\(|func intersects\(`, allow: []string{"bench/"},
				mutant: [2]string{"internal/index/planner.go", "\tp.NoteSkips(n)"}},
		},
	},
	{
		name: "One search contract",
		why:  "index.Index is the one search contract and its entries live in internal/index and on assemble.Built; an optional search interface, an index.* type assertion, a search entry elsewhere or a pool or planner setter on an index is a second path",
		msg:  "an optional search interface, an index.* type assertion, a search entry outside internal/index and internal/assemble, or a pool or planner setter on an index (call index.Index's cores through an entry)",
		rows: []structureRow{
			{pat: `ExactSearchCtx|ExactSearchColl|ExactSearchBatch|CtxSearcher|CollSearcher|BatchSearcher|RangeSearcher`,
				mutant: [2]string{"internal/index/index.go", "type BatchSearcher interface{}"}},
			{pat: `\.\(index\.`, allow: []string{"internal/index/"},
				mutant: [2]string{"internal/server/server.go", "\tif s, ok := b.Index.(index.Inserter); ok {"}},
			{pat: `func \([^)]*\) (Approx|Exact|Range)Search\(`, allow: []string{"internal/index/", "internal/assemble/", "internal/cluster/router.go"},
				mutant: [2]string{"internal/clsm/search.go", "func (l *LSM) ExactSearch(q index.Query) ([]index.Result, error) {"}},
			{pat: `func \([^)]*\) (SetParallelism|SetPlanner)\(|parallel\.New\(`,
				in:     []string{"internal/ctree/", "internal/clsm/", "internal/adsplus/", "internal/shard/", "internal/stream/"},
				mutant: [2]string{"internal/stream/btp.go", "func (s *BTP) SetParallelism(n int) {"}},
		},
	},
	{
		name: "One page cursor",
		why:  "PageReader.Scan is the one way a sequential page loop reads its pages; a PinPage outside the point probes (run.Probe, run.ProbePage) is a per-page loop",
		msg:  "PinPage outside the point probes (run.Probe, run.ProbePage); use the reader's Scan cursor",
		rows: []structureRow{
			{pat: `\.PinPage\(`, in: []string{"internal/run/*.go", "internal/clsm/*.go", "internal/stream/*.go", "internal/ctree/*.go"},
				allowFunc: `^internal/run/[^/]*:(Probe|ProbePage)$`,
				mutant:    [2]string{"internal/run/run.go", "func (s *Store) scanPages() {\n\tbuf, err := s.r.PinPage(s.name, p)\n}"}},
		},
	},
	{
		name: "One page summary",
		why:  "internal/run/summary.go holds the one resident page summary of every page-ordered file; its internals anywhere else in internal/ctree or internal/run are a second summary",
		msg:  "page summary internals outside internal/run/summary.go (use run.Summary)",
		rows: []structureRow{
			{pat: `sortable\.Symbols\(|WidenEnvelope\(|SetEnvelope\(|UseSymbols\(|UseTimestamps\(|NoteDeadPage\(|interiorSkipRun`,
				in: []string{"internal/ctree/*.go", "internal/run/*.go"}, allow: []string{"internal/run/summary.go"},
				mutant: [2]string{"internal/ctree/ctree.go", "\ts.WidenEnvelope(i, env)"}},
		},
	},
	{
		name: "One envelope bound",
		why:  "an envelope is bounded one way, simd.EnvelopeSums through index.Pruner.EnvelopeSqs; the early-exiting single-envelope test, or a one-envelope bound in a package that scans pages, is a second clamp-and-sum",
		msg:  "an envelope bounded outside the batch (use index.Pruner.EnvelopeSqs)",
		rows: []structureRow{
			{pat: `EnvelopeSqUpTo|DeadEnvelope`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/index/index_test.go", "\tif p.EnvelopeSqUpTo(env, lim) {"}},
			{pat: `EnvelopeSq\(`, in: []string{"internal/run/", "internal/ctree/", "internal/clsm/", "internal/stream/"},
				mutant: [2]string{"internal/clsm/search.go", "\tlb := p.EnvelopeSq(env)"}},
		},
	},
	{
		name: "One entry bound",
		why:  "a page's resident entries are bounded in one batch, index.Scratch's entryBounds; the deleted per-entry MinDistSqSyms, or a SymbolBoundSqs call outside internal/index, is a second place",
		msg:  "an entry bounded outside index.Scratch's one batch (use index.Scratch.ResidentBounds)",
		rows: []structureRow{
			{pat: `MinDistSqSyms`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/index/index_test.go", "\td := p.MinDistSqSyms(syms)"}},
			{pat: `\.SymbolBoundSqs\(`, allow: []string{"internal/index/"},
				mutant: [2]string{"internal/run/run.go", "\tp.SymbolBoundSqs(syms, out)"}},
		},
	},
	{
		name: "One write buffer",
		why:  "a write buffer is one type, index.Buffer, whose page is bounded in one batch; the deleted BufferPage, or a bare entry page in a package that keeps a write buffer, bounds a buffer key by key",
		msg:  "a write buffer bounded key by key (use index.Buffer)",
		rows: []structureRow{
			{pat: `BufferPage\(`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/clsm/clsm_test.go", "\tpage := index.BufferPage(keys)"}},
			{pat: `EntryPage\(`, in: []string{"internal/clsm/", "internal/stream/"},
				mutant: [2]string{"internal/stream/tp.go", "\tpage := index.EntryPage(entries)"}},
		},
	},
	{
		name: "One collector",
		why:  "k-NN and range searches share index.Collector, index.EvalPage and run.Store.ScanRun; the deleted second collector, its page loop, run scan or generic fan-out interfaces are the duplicate",
		msg:  "a second collector, page loop or run scan (use index.Collector, index.EvalPage, run.Store.ScanRun)",
		rows: []structureRow{
			{pat: `type RangeCollector|\*(index\.)?RangeCollector\b|EvalPageRange\(|FanCollector|EnvelopeTester|ScanRange\(`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/shard/shard_test.go", "func fan(c *index.RangeCollector) {}"}},
		},
	},
	{
		name: "One request decoder",
		why:  "every JSON request body is read by server.DecodeRequest under server.MaxRequestBytes; a handler reading a body itself is an uncapped body",
		msg:  "a request body read outside server.DecodeRequest",
		rows: []structureRow{
			{pat: `(NewDecoder|ReadAll)\((r|req)\.Body\)`, in: []string{"internal/server/", "internal/cluster/", "cmd/"},
				mutant: [2]string{"cmd/coconut-router/main.go", "\tdata, err := io.ReadAll(r.Body)"}},
		},
	},
	{
		name: "One request surface",
		why:  "a node and the router answer queries, inserts and the slow log through one request surface in internal/server; the router's own metric families, slow log, window or length checks or insert stamps are a copy of it",
		msg:  "the router's own copy of the node's request code (use server.QueryRequest.Check, InsertRequest.Stamps, server.Results, server.RequestMetrics)",
		rows: []structureRow{
			{pat: `coconut_router_(queries_total|query_latency_seconds|query_errors_total|traced_queries_total|inserts_total|inserted_series_total|insert_errors_total|insert_latency_seconds)`,
				in: []string{"internal/cluster/*.go"}, mutant: [2]string{"internal/cluster/metrics.go", "\treg.Counter(\"coconut_router_queries_total\")"}},
			{pat: `"/api/slowlog"`, in: []string{"internal/cluster/*.go"}, exceptLine: `\.HandleSlowLog\)`,
				mutant: [2]string{"internal/cluster/http.go", "\tmux.HandleFunc(\"/api/slowlog\", r.slowlog)"}},
			{pat: `obs\.NewSlowLog\(|obs\.SlowEntry\{`, in: []string{"internal/cluster/*.go"},
				mutant: [2]string{"internal/cluster/router.go", "\tr.slow = obs.NewSlowLog(64)"}},
			{pat: `MinTS == nil\) != \(`, in: []string{"internal/cluster/*.go"},
				mutant: [2]string{"internal/cluster/http.go", "\tif (req.MinTS == nil) != (req.MaxTS == nil) {"}},
			{pat: `len\([A-Za-z.]+\) != r\.topo\.SeriesLen`, in: []string{"internal/cluster/*.go"},
				mutant: [2]string{"internal/cluster/router.go", "\tif len(q.Series) != r.topo.SeriesLen {"}},
			{pat: `\b(ts|TS)[[:space:]]*(:=|=|:)[[:space:]]*id\b`, in: []string{"internal/cluster/*.go"},
				mutant: [2]string{"internal/cluster/router.go", "\t\tts = id"}},
		},
	},
	{
		name: "One synopsis source",
		why:  "a unit's synopsis is built from its entries and never persisted or nil; a synopsis codec or a nil-synopsis branch is a stored copy trusted on open",
		msg:  "a synopsis read back or possibly nil (rebuild it from the entries: run.Builder, run.DecodeSummary)",
		rows: []structureRow{
			{pat: `zonestat\.Decode\(|\.EncodedSize\(|Syn\.AppendBinary|Syn == nil|Syn != nil`, allow: []string{"bench/"},
				mutant: [2]string{"internal/run/run.go", "\tif r.Syn == nil {"}},
		},
	},
	{
		name: "One sorted run",
		why:  "internal/run owns the sorted run for CLSM runs and BTP partitions alike; its writers, decodes, page arithmetic or resident summary in the two index packages are a second copy",
		msg:  "run internals in internal/clsm or internal/stream (use internal/run)",
		rows: []structureRow{
			{pat: `NewRecordWriter\(|NewPackedWriter\(|DecodeKeyOnly\(|PackedFirstKey\(|\.Union\(|PageSize\(\) */|sortable\.Symbols\(|UseSymbols\(|DecodeTS\(`,
				in: []string{"internal/clsm/*.go", "internal/stream/*.go"}, mutant: [2]string{"internal/clsm/clsm.go", "\tn := d.PageSize() / size"}},
		},
	},
	{
		name: "One page-file writer",
		why:  "a new sorted file is written by the one record.Writer beneath extsort; the bulk load's own page assembly, a multi-page append elsewhere, a page builder in internal/ctree or a .sorted intermediate is a second writer",
		msg:  "page assembly outside extsort's record.Writer (describe the file as an extsort.Output)",
		rows: []structureRow{
			{pat: `packLeaves|"\.sorted"`, allow: []string{"bench/"},
				mutant: [2]string{"internal/ctree/ctree.go", "\tpages := packLeaves(entries)"}},
			{pat: `AppendPages\(`, allow: []string{"internal/storage/", "internal/record/", "bench/"},
				mutant: [2]string{"internal/ctree/ctree.go", "\tif _, err := d.AppendPages(name, pages); err != nil {"}},
			{pat: `NewPageBuilder\(`, in: []string{"internal/ctree/*.go"},
				mutant: [2]string{"internal/ctree/ctree.go", "\tb := record.NewPageBuilder(codec, size)"}},
		},
	},
	{
		name: "One page layout",
		why:  "internal/record owns the one entry-page layout, record.Layout; a packed stream, a record reader, a packed page opened or built, a record's fields decoded elsewhere, or a page constructor per encoding is a second copy",
		msg:  "the entry-page layout outside internal/record (use a record.Layout)",
		rows: []structureRow{
			{pat: `PackedWriter|PackedReader|NewRecordReader|PackedFits\(|PackedFirstKey\(`, allow: []string{"internal/record/", "bench/"},
				mutant: [2]string{"internal/run/run.go", "\tr := record.NewRecordReader(d, name)"}},
			{pat: `ViewPacked\(|NewPageBuilder\(|PackedView|\.Builder\(\)`, allow: []string{"internal/record/", "bench/"},
				mutant: [2]string{"internal/ctree/ctree.go", "\tb := l.Builder()"}},
			{pat: `\b(DecodeKeyOnly|DecodeID|DecodeTS)\(`, allow: []string{"internal/record/", "bench/"},
				mutant: [2]string{"internal/run/run.go", "\tts := record.DecodeTS(buf)"}},
			{pat: `\b(FixedPage|PackedPage)\(`, tests: true,
				mutant: [2]string{"bench/probes.go", "func FixedPage(buf []byte) {}"}},
		},
	},
	{
		name: "One page layout written",
		why:  "every entry file is fixed-size, so nothing carries which layout a file has; a layout option, a compress flag or a Packed field or argument outside internal/record is the choice (server.BuildRequest's ignored compress field aside)",
		msg:  "a page layout to choose (every entry file is fixed-size)",
		rows: []structureRow{
			{pat: `CompressRuns`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/workload/ablation_test.go", "\topts.CompressRuns = true"}},
			{pat: `\bCompress\b`, tests: true, in: []string{"internal/ctree/*.go", "internal/clsm/*.go", "internal/assemble/*.go", "internal/workload/*.go"},
				mutant: [2]string{"internal/ctree/ctree_test.go", "\tCompress: true,"}},
			{pat: `Output\{[^}]*Packed:`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/stream/stream_test.go", "\tout := extsort.Output{Name: n, Packed: true}"}},
			{pat: `\bPacked\b`, allow: []string{"internal/record/", "bench/"},
				mutant: [2]string{"internal/run/run.go", "\tPacked bool"}},
			{pat: `NewLayout\(.*, *(true|false|packed)\)`, allow: []string{"bench/"},
				mutant: [2]string{"internal/ctree/persist.go", "\tl, err := record.NewLayout(codec, size, true)"}},
			{pat: `"compress"`, tests: true, in: []string{"cmd/"},
				mutant: [2]string{"cmd/coconut-cli/main.go", "\tflag.Bool(\"compress\", false, \"\")"}},
		},
	},
	{
		name: "One CLSM lifecycle",
		why:  "a CLSM comes to be through clsm.Open and compacts through the scheduler; a second constructor, a side reader of its state, an encoding patched in, a scheduler-or-not branch or a second merge error is a second lifecycle",
		msg:  "a second CLSM lifecycle (open with clsm.Open, replay with Replay, compact through the scheduler)",
		rows: []structureRow{
			{pat: `clsm\.Recover|clsm\.SavedState|SetCompress|compact\.Stats`, allow: []string{"bench/"},
				mutant: [2]string{"internal/assemble/persist.go", "\tst, err := clsm.SavedState(dir)"}},
			{pat: `Scheduler [!=]= nil|\.Closed\(\)`, in: []string{"internal/clsm/*.go"},
				mutant: [2]string{"internal/clsm/clsm.go", "\tif l.opts.Scheduler == nil {"}},
			{pat: `^func [A-Z]`, in: []string{"internal/clsm/*.go"}, want: 1,
				mutant: [2]string{"internal/clsm/persist.go", "func Recover(dir string) (*LSM, error) {"}},
		},
	},
	{
		name: "One assembly",
		why:  "internal/assemble alone opens a build's backend, cache, pool, WAL and scheduler, and storage.Disk is the one storage.Backend; a constructor called elsewhere is a second assembly stack, a second AppendPages type a second page store",
		msg:  "index assembly outside internal/assemble (describe the build as an assemble.Spec), or a second type defining AppendPages( outside bench/ (a page medium goes beneath storage.Disk)",
		rows: []structureRow{
			{pat: `wal\.Open\(|compact\.NewScheduler\(|bufpool\.(NewCache|AttachOrNew|New)\(|storage\.NewFileDisk\(`, allow: []string{"internal/assemble/", "bench/"},
				mutant: [2]string{"internal/server/server.go", "\tcache := bufpool.NewCache(n, size)"}},
			{pat: `^func \([^)]*\) AppendPages\(`, allow: []string{"bench/"}, want: 1,
				mutant: [2]string{"internal/storage/fsdisk.go", "func (m *memMedium) AppendPages(file string, pages [][]byte) (int64, error) {"}},
		},
	},
	{
		name: "One assembly stack",
		why:  "a stream is a build: TP and BTP are assembled by assemble.Build and PP is the plain build; a scheme constructed elsewhere, the deleted assemble.Base, or a PP wrapper and its entry interface is a second stack",
		msg:  "a stream assembled outside internal/assemble (describe it as an assemble.Spec with a Scheme; PP is the plain build)",
		rows: []structureRow{
			{pat: `stream\.New(TP|BTP)\(|assemble\.Base\(`, allow: []string{"internal/assemble/"},
				mutant: [2]string{"bench/wl_stream.go", "\ttp := stream.NewTP(opts)"}},
			{pat: `NewPP\(|EntryIndex`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/stream/stream.go", "func NewPP(idx EntryIndex) *PP {"}},
		},
	},
	{
		name: "One raw store",
		why:  "storage.RawFile is the one raw-series store, made or reopened only by internal/storage and internal/assemble; a mirror beside it, a log kept whole by an option, a store grown at an arbitrary ID or a raw file made elsewhere is a second store",
		msg:  "a second raw-series store (keep raw series in one storage.RawFile, made by internal/assemble)",
		rows: []structureRow{
			{pat: `MemStore|TruncateWALOnFlush|SetAt\(`, allow: []string{"bench/"},
				mutant: [2]string{"internal/assemble/build.go", "\tmirror := storage.MemStore{}"}},
			{pat: `CreateRawFile\(|OpenRawFile\(|new\(storage\.RawFile\)|storage\.RawFile\{`, allow: []string{"internal/storage/", "internal/assemble/"},
				mutant: [2]string{"internal/server/server.go", "\traw, err := storage.CreateRawFile(d, name, n, 0, nil)"}},
		},
	},
	{
		name: "One way in",
		why:  "every setting enters one way: the planner's reference switch on a build, kernels per process, a cache at build or open, a planner on a search's context, a build's settings from its request; an option, field, setter, default or flag for one is a second way in",
		msg:  "a second way in for a setting (planner off: Built.Planner.Disabled; planner: SearchCtx.Planner, set by an entry; kernels: COCONUT_KERNELS; cache: CacheBytes at build or open; build settings: the build request)",
		rows: []structureRow{
			{pat: `DisablePlanner|Kernels[[:space:]]+string|EnableCache`, allow: []string{"bench/"},
				mutant: [2]string{"internal/assemble/spec.go", "\tDisablePlanner bool"}},
			{pat: `\) (UseReader|SetPlanner)\(`, in: []string{"internal/ctree/*.go", "internal/clsm/*.go"},
				mutant: [2]string{"internal/ctree/ctree.go", "func (t *Tree) UseReader(r storage.PageReader) {}"}},
			{pat: `\*index\.Planner`, in: []string{"internal/ctree/", "internal/clsm/", "internal/run/", "internal/stream/", "internal/adsplus/"},
				mutant: [2]string{"internal/adsplus/adsplus.go", "\tplanner *index.Planner"}},
			{pat: `^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]\*index\.Planner[[:space:]]*(//.*)?$`, in: []string{"internal/shard/"},
				mutant: [2]string{"internal/shard/group.go", "\tplanner *index.Planner // the group's planner"}},
			{pat: `\bProbePlan\b`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/index/index_test.go", "\tvar p ProbePlan"}},
			{pat: `SetDefaults\(`, tests: true, allow: []string{"bench/"},
				mutant: [2]string{"internal/server/server.go", "\ts.SetDefaults(spec)"}},
			{pat: `^[[:space:]]+defaults[[:space:]]+assemble\.Spec`, tests: true, in: []string{"internal/server/*.go"},
				mutant: [2]string{"internal/server/server.go", "\tdefaults assemble.Spec"}},
			{pat: `flag\.[A-Za-z0-9]+\("(parallelism|shards|cache|compact-workers)"`, tests: true, in: []string{"cmd/coconut-server/*.go"},
				mutant: [2]string{"cmd/coconut-server/main.go", "\tpar := flag.Int(\"parallelism\", 0, \"\")"}},
		},
	},
	{
		name: "Paper experiments only",
		why:  "internal/workload's experiments are the paper's E1–E12; a layer's check belongs in a tier-1 test and its timing in bench/, so an experiment past E12 or a coconut-bench flag that sized one is one growing back",
		msg:  "an experiment past E12 in internal/workload, or a coconut-bench flag for one (hold a layer check in a tier-1 test, time it in bench/)",
		rows: []structureRow{
			{pat: `^func E(1[3-9]|[2-9][0-9])[A-Z]`, in: []string{"internal/workload/*.go"},
				mutant: [2]string{"internal/workload/experiments.go", "func E13Shards(cfg Config) (*Table, error) {"}},
			{pat: `flag\.[A-Za-z0-9]+\("(shards|cache|compact-workers|storage)"`, tests: true, in: []string{"cmd/coconut-bench/*.go"},
				mutant: [2]string{"cmd/coconut-bench/main.go", "\tshards := flag.Int(\"shards\", 0, \"\")"}},
		},
	},
}

// topFunc takes the name of the top-level func a line opens.
var topFunc = regexp.MustCompile(`^func (?:\([^)]*\) )?([^(\[]*)`)

// inSet reports whether the slash path p is in set: under an entry ending
// in "/", or matched by any other entry as a path.Match pattern.
func inSet(p string, set []string) bool {
	for _, e := range set {
		if ok, _ := path.Match(e, p); ok || strings.HasSuffix(e, "/") && strings.HasPrefix(p, e) {
			return true
		}
	}
	return false
}

// reads reports whether the row reads the Go file at slash path p.
func (r *structureRow) reads(p string) bool {
	if !strings.HasSuffix(p, ".go") || !r.tests && strings.HasSuffix(p, "_test.go") {
		return false
	}
	return (len(r.in) == 0 || inSet(p, r.in)) && !inSet(p, r.allow)
}

// hits returns the lines of src, the file at slash path p, the row flags,
// each as "p:line: text".
func (r *structureRow) hits(p string, src []byte) []string {
	if !r.reads(p) || !r.mayMatch(src) {
		return nil
	}
	var out []string
	fn := ""
	for i, line := range strings.Split(string(src), "\n") {
		if m := topFunc.FindStringSubmatch(line); m != nil {
			fn = m[1]
		}
		if !r.re.MatchString(line) ||
			r.except != nil && r.except.MatchString(line) ||
			r.fn != nil && r.fn.MatchString(p+":"+fn) {
			continue
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(line)))
	}
	return out
}

// compile readies the row's patterns and its needles.
func (r *structureRow) compile() {
	r.re = regexp.MustCompile(r.pat)
	if r.exceptLine != "" {
		r.except = regexp.MustCompile(r.exceptLine)
	}
	if r.allowFunc != "" {
		r.fn = regexp.MustCompile(r.allowFunc)
	}
	parsed, _ := syntax.Parse(r.pat, syntax.Perl) // r.re parsed it
	for _, n := range needles(parsed.Simplify()) {
		r.needles = append(r.needles, []byte(n))
	}
}

// mayMatch reports whether the file src can hold a hit: it holds one of the
// row's needles, if the row has any.
func (r *structureRow) mayMatch(src []byte) bool {
	for _, n := range r.needles {
		if bytes.Contains(src, n) {
			return true
		}
	}
	return r.needles == nil
}

// needles returns literals of which every match of re holds at least one,
// or nil when it cannot tell. They only speed the walk: a file that holds
// none is not matched line by line.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture:
		return needles(re.Sub[0])
	case syntax.OpConcat:
		var best []string
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || shortest(n) > shortest(best)) {
				best = n
			}
		}
		return best
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			all = append(all, n...)
		}
		return all
	}
	return nil
}

func shortest(ss []string) int {
	m := len(ss[0])
	for _, s := range ss[1:] {
		m = min(m, len(s))
	}
	return m
}

// TestStructure holds the checkout to its structure rules. Every row first
// flags its mutant, so a pattern that drifts into matching nothing fails
// here rather than passing silently; then one walk over the checkout reads
// every Go file outside .git, .bench_build and testdata once.
func TestStructure(t *testing.T) {
	for ri := range structureRules {
		rule := &structureRules[ri]
		for i := range rule.rows {
			r := &rule.rows[i]
			r.compile()
			if len(r.hits(r.mutant[0], []byte(r.mutant[1]))) == 0 {
				t.Errorf("%s row %d (%s) does not flag its mutant %s: %q", rule.name, i, r.pat, r.mutant[0], r.mutant[1])
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	found := make([][][]string, len(structureRules))
	for ri := range found {
		found[ri] = make([][]string, len(structureRules[ri].rows))
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		// The rules' own file spells every name they forbid.
		if !strings.HasSuffix(p, ".go") || p == "structure_test.go" {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		for ri := range structureRules {
			for i := range structureRules[ri].rows {
				found[ri][i] = append(found[ri][i], structureRules[ri].rows[i].hits(p, src)...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ri, rule := range structureRules {
		for i, r := range rule.rows {
			hits := found[ri][i]
			if r.want > 0 && len(hits) == r.want || r.want == 0 && len(hits) == 0 {
				continue
			}
			count := ""
			if r.want > 0 {
				count = fmt.Sprintf(" (want %d line(s) matching %s, got %d)", r.want, r.pat, len(hits))
			}
			t.Errorf("%s: %s%s\n\t(%s)\n\t%s", rule.name, rule.msg, count, rule.why, strings.Join(hits, "\n\t"))
		}
	}
}
