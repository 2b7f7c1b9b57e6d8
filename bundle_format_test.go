package sdm

import (
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sdm/internal/store"
)

// The golden strings below pin the on-disk bundle format: the bytes of
// MANIFEST.json and the JSON payload of the WAL's begin record, for
// every backend, under default and fully specified geometry, as written
// by SaveBundle and by MigrateBundle. Bundles written by earlier builds
// must keep opening and recovering, so a key, its order, or its
// omitempty rule may never change. created_at is masked, and the bundle
// directory (part of a derived "obj" endpoint) reads as <dir>.

var formatGoldenFiles = map[string][]byte{
	"a.dat":    crashPattern('A', 300),
	"keep.dat": crashPattern('K', 150),
}

// formatFull sets every geometry field, including ones the backend
// does not use, so the goldens also pin which fields each kind keeps.
var formatFull = BundleOptions{Compress: true, ChunkSize: 4096, PartSize: 1 << 20}

const goldenInventory = ` "files": [
  {
   "name": "a.dat",
   "size": 300
  },
  {
   "name": "keep.dat",
   "size": 150
  }
 ]
}
`

var formatGolden = []struct {
	backend  string
	full     bool
	begin    string
	manifest string
}{
	{"dir", false,
		`{"format":1,"backend":"dir"}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"dir\",\n" + goldenInventory},
	{"dir", true,
		`{"format":1,"backend":"dir","compress":true,"chunk_size":4096}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"dir\",\n \"compress\": true,\n \"chunk_size\": 4096,\n" + goldenInventory},
	{"cas", false,
		`{"format":1,"backend":"cas"}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"cas\",\n" + goldenInventory},
	{"cas", true,
		`{"format":1,"backend":"cas","compress":true,"chunk_size":4096}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"cas\",\n \"compress\": true,\n \"chunk_size\": 4096,\n" + goldenInventory},
	{"obj", false,
		`{"format":1,"backend":"obj","endpoint":"sim://<dir>"}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"obj\",\n \"endpoint\": \"sim://<dir>\",\n" + goldenInventory},
	{"obj", true,
		`{"format":1,"backend":"obj","compress":true,"chunk_size":4096,"endpoint":"sim://<dir>","part_size":1048576}`,
		"{\n \"format\": 1,\n \"created_at\": \"*\",\n \"backend\": \"obj\",\n \"compress\": true,\n \"chunk_size\": 4096,\n \"endpoint\": \"sim://<dir>\",\n \"part_size\": 1048576,\n" + goldenInventory},
}

var createdAtRE = regexp.MustCompile(`"created_at": "[^"]*"`)

// normalizeFormat masks the save time and the bundle directory.
func normalizeFormat(raw []byte, dir string) string {
	abs, _ := filepath.Abs(dir)
	s := strings.ReplaceAll(string(raw), filepath.Clean(abs), "<dir>")
	return createdAtRE.ReplaceAllString(s, `"created_at": "*"`)
}

// formatOpts builds the options of one golden case.
func formatOpts(backend string, full bool) BundleOptions {
	opts := BundleOptions{Backend: backend}
	if full {
		opts = formatFull
		opts.Backend = backend
	}
	return opts
}

// beginRecord stops a save right after its WAL begin record is durable
// and returns that record's JSON payload.
func beginRecord(t *testing.T, cl *Cluster, dir string, opts BundleOptions) string {
	t.Helper()
	stop := errors.New("stop after begin")
	opts.crashFn = func(point string) error {
		if point == "wal-begin" {
			return stop
		}
		return nil
	}
	if err := cl.SaveBundleOpts(dir, opts); !errors.Is(err, stop) {
		t.Fatalf("save = %v, want the injected stop", err)
	}
	recs, _, err := store.ReadWAL(filepath.Join(dir, bundleWALName))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != store.WALBegin {
		t.Fatalf("wal holds %d records, want one begin record", len(recs))
	}
	if err := RecoverBundle(dir); err != nil {
		t.Fatal(err)
	}
	return normalizeFormat(recs[0].Payload, dir)
}

func TestBundleFormatGolden(t *testing.T) {
	for _, g := range formatGolden {
		name := g.backend
		if g.full {
			name += "-full"
		}
		t.Run(name, func(t *testing.T) {
			cl := crashCluster(t, formatGoldenFiles, "v1")
			opts := formatOpts(g.backend, g.full)

			saved := t.TempDir()
			if got := beginRecord(t, cl, saved, opts); got != g.begin {
				t.Errorf("save begin record:\n got %s\nwant %s", got, g.begin)
			}
			if err := cl.SaveBundleOpts(saved, opts); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(saved, bundleManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if got := normalizeFormat(raw, saved); got != g.manifest {
				t.Errorf("save manifest:\n got %s\nwant %s", got, g.manifest)
			}

			// A migration into the same backend writes the same format.
			src := t.TempDir()
			if err := cl.SaveBundleOpts(src, BundleOptions{Backend: "cas"}); err != nil {
				t.Fatal(err)
			}
			migrated := filepath.Join(t.TempDir(), "dst")
			if _, err := MigrateBundle(src, migrated, opts); err != nil {
				t.Fatal(err)
			}
			raw, err = os.ReadFile(filepath.Join(migrated, bundleManifestName))
			if err != nil {
				t.Fatal(err)
			}
			if got := normalizeFormat(raw, migrated); got != g.manifest {
				t.Errorf("migrated manifest:\n got %s\nwant %s", got, g.manifest)
			}
		})
	}
}
