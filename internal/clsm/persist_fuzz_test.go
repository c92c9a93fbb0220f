package clsm

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

// fuzzRunFiles are the run files the fuzz disk holds: every name the seeds'
// run sets list, and more, so a mutated count or name still finds a file.
const fuzzRunFiles = 32

// FuzzReadPersisted feeds readPersisted — the decoder of the meta file a
// Save writes and of the manifest a durable LSM keeps, through
// decodePayload — arbitrary file contents, as the meta file or as the
// manifest. Any input must give an error or a state, never a panic; a state
// it accepts lists only run files the disk holds, whose counts sum to the
// count it states, under a valid summarization shape. The committed corpus
// (testdata/fuzz/FuzzReadPersisted) holds a durable LSM's manifest at
// version 4 and a saved LSM's meta file at versions 2, 3 and 4, as each
// version lays out the same run set.
func FuzzReadPersisted(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest bool, file []byte) {
		disk := storage.NewDisk(256)
		for i := 1; i <= fuzzRunFiles; i++ {
			if err := disk.Create(fmt.Sprintf("clsm.run.%06d", i)); err != nil {
				t.Fatal(err)
			}
		}
		name := "clsm" + lsmMetaFileSfx
		if manifest {
			name = "clsm" + lsmManifestFileSfx
		}
		if err := disk.Create(name); err != nil {
			t.Fatal(err)
		}
		if _, err := disk.AppendPages(name, file); err != nil {
			t.Fatal(err)
		}
		st, err := readPersisted(disk, "clsm")
		if err != nil {
			return
		}
		if err := st.cfg.Validate(); err != nil {
			t.Fatalf("accepted an invalid shape: %v", err)
		}
		if want := map[bool]source{false: fromMeta, true: fromManifest}[manifest]; st.src != want {
			t.Fatalf("decoded %s as source %d", name, st.src)
		}
		var total int64
		for _, lvl := range st.levels {
			for _, r := range lvl {
				if !disk.Exists(r.File) {
					t.Fatalf("accepted run %q, which the disk does not hold", r.File)
				}
				total += r.Count
			}
		}
		if total != st.count {
			t.Fatalf("accepted runs holding %d entries under a count of %d", total, st.count)
		}
	})
}
