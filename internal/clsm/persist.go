package clsm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/record"
	"repro/internal/run"
	"repro/internal/series"
	"repro/internal/sortable"
	"repro/internal/storage"
	"repro/internal/zonestat"
)

// Two persisted structures share one payload encoding:
//
// "<name>.meta" (written by Save) — the quiesced snapshot:
//
//	magic "CLSMMETA" | version u32 | payload length u64 | payload
//
// "<name>.manifest" (written on every manifest swap in WAL mode) — the
// crash-consistent run set, which Open prefers to the meta file:
//
//	magic "CLSMMANI" | version u32 | payload length u64 |
//	durableLSN u64 (two's complement; ^uint64(0) encodes -1) | payload
//
// payload:
//
//	count u64 | nextID u64 | seq u64 | flushes u64 | merges u64
//	growth u32 | bufferEntries u32
//	materialized u8 | seriesLen u32 | segments u32 | bits u32
//	levelCount u32 | per level: runCount u32 |
//	  per run: nameLen u32 | name | count u64 | [v2: synLen u32 | synopsis]
//
// Version 2 appends each run's planner synopsis (zonestat encoding; synLen
// 0 when the run has none). Version-1 files are still read — their runs
// simply carry no statistics, which disables planning for them until new
// flushes and merges repopulate the synopses.
//
// Version 3 appends a per-run packed flag byte (after the synopsis): 1 when
// the run's pages use the packed codec (record.IsPacked), 0 for the
// fixed-size record layout. Version-1/2 files decode with packed=false,
// which is exactly what they contain.
//
// In both files count is the number of entries held by the listed runs
// (Save flushes first, so for the meta file that is also the live count).
const (
	lsmMetaMagic       = "CLSMMETA"
	lsmMetaVersion     = 3
	lsmManifestMagic   = "CLSMMANI"
	lsmManifestVersion = 3
	lsmManifestFileSfx = ".manifest"
	lsmMetaFileSfx     = ".meta"
)

// source names the persisted file Open adopted its run set from.
type source int

const (
	fromNothing source = iota
	fromMeta
	fromManifest
)

// metaState is the decoded payload shared by the meta and manifest files,
// with the file it came from and, for a manifest, its durable LSN.
type metaState struct {
	count, nextID, seq, flushes, merges int64
	growth, bufferEntries               int
	cfg                                 index.Config
	levels                              [][]run.Run
	src                                 source
	durableLSN                          int64
}

// Save flushes the write buffer, waits out any background compaction, and
// persists the LSM's structure metadata to "<name>.meta" on its disk, so
// Open can adopt it (together with the disk snapshot). An existing
// meta file is replaced. Without a WAL it also removes a manifest left by a
// durable incarnation of the LSM: nothing has kept that one current, and
// Open would prefer it to this Save. Call with no insert in flight.
func (l *LSM) Save() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.Quiesce(); err != nil {
		return err
	}
	if manifest := l.opts.Name + lsmManifestFileSfx; l.opts.WAL == nil && l.opts.Disk.Exists(manifest) {
		if err := l.opts.Disk.Remove(manifest); err != nil {
			return fmt.Errorf("clsm: removing stale manifest: %w", err)
		}
	}
	payload := l.encodePayload(l.cur.Load().man)
	return storage.WriteBlob(l.opts.Disk, l.opts.Name+lsmMetaFileSfx, lsmMetaMagic, lsmMetaVersion, nil, payload)
}

// persistManifest writes the crash-consistent manifest file after a swap.
// Only the durable-ingest mode pays for it: without a WAL the disk image is
// only ever persisted through Save, which writes the meta file instead.
// Callers hold writeMu, so manifest files hit the disk in version order.
func (l *LSM) persistManifest(m *manifest) error {
	if l.opts.WAL == nil {
		return nil
	}
	var head [8]byte
	binary.LittleEndian.PutUint64(head[:], uint64(m.durableLSN))
	return storage.WriteBlob(l.opts.Disk, l.opts.Name+lsmManifestFileSfx, lsmManifestMagic, lsmManifestVersion, head[:], l.encodePayload(m))
}

// encodePayload renders the shared payload for a given manifest; the
// counters come from the live atomics, the run set from the manifest.
func (l *LSM) encodePayload(m *manifest) []byte {
	buf := make([]byte, 0, 128)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.entriesIn()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.nextID.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.seq.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.flushes.Load()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.merges.Load()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.opts.GrowthFactor))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.opts.BufferEntries))
	if l.opts.Config.Materialized {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.opts.Config.SeriesLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.opts.Config.Segments))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(l.opts.Config.Bits))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.levels)))
	for _, lvl := range m.levels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(lvl)))
		for _, r := range lvl {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.File)))
			buf = append(buf, r.File...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Count))
			if r.Syn == nil {
				buf = binary.LittleEndian.AppendUint32(buf, 0)
			} else {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Syn.EncodedSize()))
				buf = r.Syn.AppendBinary(buf)
			}
			if r.Packed {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// readBlob reads a meta or manifest file through the shared frame check.
func readBlob(disk storage.Backend, name, magic string, maxVersion uint32, prefixLen int) ([]byte, uint32, error) {
	blob, version, err := storage.ReadBlob(disk, name, magic, maxVersion, prefixLen)
	if err != nil {
		return nil, 0, fmt.Errorf("clsm: %w", err)
	}
	return blob, version, nil
}

// decodePayload parses the shared payload (at the given format version),
// verifying the listed run files exist on disk and hold the recorded number
// of entries.
func decodePayload(disk storage.Backend, buf []byte, version uint32) (*metaState, error) {
	const fixed = 8*5 + 4*2 + 1 + 4*3 + 4
	if len(buf) < fixed {
		return nil, fmt.Errorf("clsm: meta payload too short: %d", len(buf))
	}
	st := &metaState{}
	st.count = int64(binary.LittleEndian.Uint64(buf))
	st.nextID = int64(binary.LittleEndian.Uint64(buf[8:]))
	st.seq = int64(binary.LittleEndian.Uint64(buf[16:]))
	st.flushes = int64(binary.LittleEndian.Uint64(buf[24:]))
	st.merges = int64(binary.LittleEndian.Uint64(buf[32:]))
	st.growth = int(binary.LittleEndian.Uint32(buf[40:]))
	st.bufferEntries = int(binary.LittleEndian.Uint32(buf[44:]))
	st.cfg = index.Config{
		Materialized: buf[48] == 1,
		SeriesLen:    int(binary.LittleEndian.Uint32(buf[49:])),
		Segments:     int(binary.LittleEndian.Uint32(buf[53:])),
		Bits:         int(binary.LittleEndian.Uint32(buf[57:])),
	}
	levelCount := int(binary.LittleEndian.Uint32(buf[61:]))
	if err := st.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("clsm: invalid persisted config: %w", err)
	}
	off := 65
	var total int64
	for lv := 0; lv < levelCount; lv++ {
		if off+4 > len(buf) {
			return nil, fmt.Errorf("clsm: meta truncated at level %d", lv)
		}
		runCount := int(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
		var runs []run.Run
		for ri := 0; ri < runCount; ri++ {
			if off+4 > len(buf) {
				return nil, fmt.Errorf("clsm: meta truncated at level %d run %d", lv, ri)
			}
			nameLen := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if off+nameLen+8 > len(buf) {
				return nil, fmt.Errorf("clsm: meta truncated in run name")
			}
			r := run.Run{
				File:  string(buf[off : off+nameLen]),
				Count: int64(binary.LittleEndian.Uint64(buf[off+nameLen:])),
			}
			off += nameLen + 8
			if version >= 2 {
				if off+4 > len(buf) {
					return nil, fmt.Errorf("clsm: meta truncated at synopsis length")
				}
				synLen := int(binary.LittleEndian.Uint32(buf[off:]))
				off += 4
				if synLen > 0 {
					if off+synLen > len(buf) {
						return nil, fmt.Errorf("clsm: meta truncated in synopsis")
					}
					syn, n, err := zonestat.Decode(buf[off : off+synLen])
					if err != nil {
						return nil, err
					}
					if n != synLen {
						return nil, fmt.Errorf("clsm: synopsis length mismatch: %d != %d", n, synLen)
					}
					r.Syn = syn
					off += synLen
				}
			}
			if version >= 3 {
				if off+1 > len(buf) {
					return nil, fmt.Errorf("clsm: meta truncated at packed flag")
				}
				r.Packed = buf[off] == 1
				off++
			}
			if !disk.Exists(r.File) {
				return nil, fmt.Errorf("clsm: run file %q missing", r.File)
			}
			total += r.Count
			runs = append(runs, r)
		}
		st.levels = append(st.levels, runs)
	}
	if total != st.count {
		return nil, fmt.Errorf("clsm: persisted counts inconsistent: runs hold %d, meta says %d", total, st.count)
	}
	return st, nil
}

// readPersisted decodes the run set persisted under name: the
// crash-consistent manifest with its durable LSN when one exists, else the
// meta file of the last Save (durable LSN -1), else nil.
func readPersisted(disk storage.Backend, name string) (*metaState, error) {
	file, magic, version, prefix, src := name+lsmManifestFileSfx, lsmManifestMagic, uint32(lsmManifestVersion), 8, fromManifest
	if !disk.Exists(file) {
		file, magic, version, prefix, src = name+lsmMetaFileSfx, lsmMetaMagic, lsmMetaVersion, 0, fromMeta
		if !disk.Exists(file) {
			return nil, nil
		}
	}
	blob, ver, err := readBlob(disk, file, magic, version, prefix)
	if err != nil {
		return nil, err
	}
	st, err := decodePayload(disk, blob[prefix:], ver)
	if err != nil {
		return nil, err
	}
	st.src, st.durableLSN = src, -1
	if src == fromManifest {
		st.durableLSN = int64(binary.LittleEndian.Uint64(blob))
	}
	return st, nil
}

// Open returns the LSM opts describes over whatever opts.Disk holds under
// opts.Name: the run set of the persisted manifest (preferred), else that of
// the last Save's meta file, else none. A zero Config, GrowthFactor or
// BufferEntries takes the persisted value — the default when nothing is
// persisted, where a zero Config is an error — and a given Config must match
// the persisted one. Each adopted run gets its resident summary back from
// one sequential pass over its file (run.Store.Load). Open then removes the
// run files the adopted set does not name: the output of a flush or merge
// that crashed before its manifest was persisted, whose name the next flush
// would otherwise collide with (run names continue from the persisted seq),
// and merge victims whose reclaim the crash pre-empted. Only names of
// exactly the form runName produces are candidates. Open replays no log;
// Replay does.
func Open(opts Options) (*LSM, error) {
	if opts.Disk == nil {
		return nil, fmt.Errorf("clsm: Disk is required")
	}
	if opts.Name == "" {
		opts.Name = "clsm"
	}
	st, err := readPersisted(opts.Disk, opts.Name)
	if err != nil {
		return nil, err
	}
	if err := opts.setDefaults(st); err != nil {
		return nil, err
	}
	if st == nil {
		st = &metaState{src: fromNothing, durableLSN: -1}
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = parallel.Resolve(opts.Parallelism)
	}
	l := &LSM{
		opts:    opts,
		store:   run.NewStore(opts.Disk, opts.Reader, opts.Planner, opts.Config, opts.Raw),
		pool:    parallel.New(opts.Parallelism),
		adopted: st.src,
	}
	if size := l.store.Codec().Size(); size > opts.Disk.PageSize() {
		return nil, fmt.Errorf("clsm: entry size %d exceeds page size %d", size, opts.Disk.PageSize())
	}
	if opts.Compress && !record.PackedFits(l.store.Codec(), opts.Disk.PageSize()) {
		return nil, fmt.Errorf("clsm: packed entry size exceeds page size %d", opts.Disk.PageSize())
	}
	for _, lvl := range st.levels {
		for i, r := range lvl {
			loaded, err := l.store.Load(r, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("clsm: loading run %q: %w", r.File, err)
			}
			lvl[i] = loaded
		}
	}
	l.count.Store(st.count)
	l.nextID.Store(st.nextID)
	l.seq.Store(st.seq)
	l.flushes.Store(st.flushes)
	l.merges.Store(st.merges)
	man := &manifest{levels: st.levels, durableLSN: st.durableLSN}
	l.cur.Store(&view{man: man})
	l.oldest = man
	l.bufBase = st.durableLSN + 1

	live := make(map[string]bool)
	for _, r := range allRuns(man) {
		live[r.File] = true
	}
	prefix := opts.Name + ".run."
	for _, f := range opts.Disk.Files() {
		digits, ok := strings.CutPrefix(f, prefix)
		if !ok || digits == "" || strings.Trim(digits, "0123456789") != "" || live[f] {
			continue
		}
		if err := opts.Disk.Remove(f); err != nil {
			return nil, fmt.Errorf("clsm: removing unreferenced run %q: %w", f, err)
		}
		l.reclaimed.Add(1)
	}
	return l, nil
}

// Replay re-inserts the WAL tail past what Open adopted through the normal
// insert path, so no acknowledged insert is lost even when the process died
// with a full write buffer; a torn final frame (crash mid-append) ends
// replay cleanly. It is the one check that the log joins the persisted
// state: with a manifest it reads from the manifest's durable LSN + 1, where
// the log must not start later; with a meta file, which stores no LSN, it
// reads the whole retained log and skips the entries the snapshot holds by
// ID; with nothing persisted the log must start at LSN 0. Without a WAL it
// does nothing.
//
// onReplay, when non-nil, observes every replayed entry together with the
// series logged alongside it (the facade uses it to rebuild its raw-series
// mirror) — for a non-materialized index, which reads that mirror, the
// log's older entries too. Flushes triggered by replay behave normally, so
// recovery itself makes progress durable. Call once, right after Open, with
// no insert in flight.
func (l *LSM) Replay(onReplay func(record.Entry, series.Series) error) error {
	w := l.opts.WAL
	if w == nil {
		return nil
	}
	from, startID := l.bufBase, l.nextID.Load() // from: durable LSN + 1, else 0
	head := onReplay != nil && !l.opts.Config.Materialized
	switch first := w.FirstLSN(); l.adopted {
	case fromManifest:
		if first > from {
			return fmt.Errorf("clsm: WAL starts at LSN %d, past LSN %d, the first one the persisted manifest of %q lacks", first, from, l.opts.Name)
		}
	case fromMeta:
		// The meta file stores no LSN: the whole retained log is read and
		// joined by ID below.
	case fromNothing:
		if first > 0 {
			return fmt.Errorf("clsm: WAL starts at LSN %d but nothing is persisted as %q, which needs LSN 0: a log truncated by a snapshot checkpoint reopens only with its snapshot (OpenLSM)", first, l.opts.Name)
		}
	}
	l.replaying = true
	defer func() { l.replaying = false }()
	if head {
		from = min(from, w.FirstLSN())
	}
	err := w.Replay(from, func(lsn int64, payload []byte) error {
		e, s, err := decodeWALFrame(payload, l.opts.Config.SeriesLen)
		if err != nil {
			return err
		}
		if e.ID < startID { // already durable in the adopted run set
			if head {
				return onReplay(e, s)
			}
			return nil
		}
		l.mu.Lock()
		if len(l.buffer) == 0 {
			l.bufBase = lsn
		} else if l.bufBase+int64(len(l.buffer)) != lsn {
			l.mu.Unlock()
			return fmt.Errorf("clsm: non-contiguous WAL replay at LSN %d", lsn)
		}
		l.mu.Unlock()
		l.raiseNextID(e.ID)
		entry := e
		if !l.opts.Config.Materialized {
			entry.Payload = nil
		}
		if err := l.insertEntry(entry, s); err != nil {
			return err
		}
		if onReplay != nil {
			return onReplay(e, s)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("clsm: wal replay: %w", err)
	}
	return nil
}

// sameShape verifies a persisted configuration matches the caller's — the
// entry codec layouts must agree for runs and WAL frames to decode.
func sameShape(stored, given index.Config) error {
	if stored != given {
		return fmt.Errorf("clsm: persisted config %+v differs from given %+v", stored, given)
	}
	return nil
}

// WAL frame: flag u8 (1 = series present) | key | id u64 | ts u64 |
// [series]. The series rides along even for non-materialized indexes so
// recovery can rebuild ID-addressed raw mirrors.
func encodeWALFrame(e record.Entry, s series.Series) []byte {
	n := 1 + record.HeaderBytes
	if s != nil {
		n += series.Size(len(s))
	}
	buf := make([]byte, 0, n)
	if s != nil {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = e.Key.AppendBinary(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.ID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.TS))
	if s != nil {
		buf = s.AppendBinary(buf)
	}
	return buf
}

func decodeWALFrame(payload []byte, seriesLen int) (record.Entry, series.Series, error) {
	if len(payload) < 1+record.HeaderBytes {
		return record.Entry{}, nil, fmt.Errorf("clsm: wal frame too short: %d", len(payload))
	}
	hasSeries := payload[0] == 1
	body := payload[1:]
	e := record.Entry{
		Key: sortable.DecodeKey(body),
		ID:  int64(binary.LittleEndian.Uint64(body[sortable.KeyBytes:])),
		TS:  int64(binary.LittleEndian.Uint64(body[sortable.KeyBytes+8:])),
	}
	if !hasSeries {
		return e, nil, nil
	}
	s, err := series.DecodeBinary(body[record.HeaderBytes:], seriesLen)
	if err != nil {
		return record.Entry{}, nil, fmt.Errorf("clsm: wal frame series: %w", err)
	}
	e.Payload = s
	return e, s, nil
}
