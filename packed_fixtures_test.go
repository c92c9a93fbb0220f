package coconut

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
)

// TestPackedFixtures: the snapshots under testdata/ hold the packed page
// layout — delta- and bit-packed keys, frame-of-reference IDs and
// timestamps, payloads verbatim — that older builds wrote when asked to. No
// build reads it now, so each must fail to open with ErrPacked, in an error
// that names the snapshot. They were saved by such a build and are
// never rewritten:
//
//   - ctree_v6_packed_full.ccnut: a materialized CTree (meta v6) of
//     cacheEquivData(240, 32, 41)'s first 150 series, summarized to 8
//     segments of 6 bits and bulk-loaded on 2048-byte pages at fill 0.7,
//     then the next 30 inserted at timestamps 5–34, which split leaves.
//   - clsm_v4_packed.ccnut: a key-only CLSM (meta and manifest v4: it was
//     saved with a write-ahead log) of cacheEquivData(450, 32, 42)'s first
//     300 series at timestamps 0–299, buffer 32, growth factor 3, on
//     1024-byte pages, with its raw series, in two packed runs.
//
// That the refusal is for the layout and not for a damaged file is held by
// the files themselves: every page of the index files opens as a packed
// page of the codec the snapshot was built with.
func TestPackedFixtures(t *testing.T) {
	for _, fx := range []struct {
		file, prefix string
		codec        record.Codec
		open         func(string, ...Options) error
	}{
		{"ctree_v6_packed_full.ccnut", "ctree.leaves", record.Codec{SeriesLen: 32, Materialized: true}, func(path string, opts ...Options) error {
			tr, err := OpenTree(path, opts...)
			if err == nil {
				tr.Close()
			}
			return err
		}},
		{"clsm_v4_packed.ccnut", "clsm.run.", record.Codec{SeriesLen: 32}, func(path string, opts ...Options) error {
			l, err := OpenLSM(path, opts...)
			if err == nil {
				l.Close()
			}
			return err
		}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			path := filepath.Join("testdata", fx.file)
			if files := packedFiles(t, path, fx.prefix, fx.codec); files == 0 {
				t.Fatalf("%s holds no packed %s* file", path, fx.prefix)
			}
			for _, cache := range []int64{0, 32 << 10} {
				err := fx.open(path, Options{CacheBytes: cache})
				if !errors.Is(err, ErrPacked) || !strings.Contains(err.Error(), path) {
					t.Fatalf("cache %d: opening %s: %v; want ErrPacked naming the snapshot", cache, path, err)
				}
			}
		})
	}
}

// packedFiles counts the files of the snapshot at path named with prefix,
// every page of each of which must open as a packed page of codec.
func packedFiles(t *testing.T, path, prefix string, codec record.Codec) int {
	t.Helper()
	d, err := storage.LoadDiskFile(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	page, files := make([]byte, d.PageSize()), 0
	for _, f := range d.Files() {
		n, err := d.NumPages(f)
		if !strings.HasPrefix(f, prefix) || err != nil {
			continue
		}
		for p := int64(0); p < n; p++ {
			if _, err := d.ReadPage(f, p, page); err != nil {
				t.Fatal(err)
			}
			if _, err := codec.ViewPacked(page); err != nil {
				t.Fatalf("%s page %d of %d is not a packed page: %v", f, p, n, err)
			}
		}
		files++
	}
	return files
}
