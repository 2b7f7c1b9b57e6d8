package sdm

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"sdm/internal/catalog"
	"sdm/internal/pfs"
	"sdm/internal/server"
	"sdm/internal/wire"
	"sdm/meshgen"
	"sdm/partitioner"
	"sdm/sdmclient"
)

// writeImportRun drives a run that imports a mesh's edge arrays and
// registers their distribution in index_table. Finalize releases the
// run's import list, so one import_table row — a run caught before
// SDM_release_importlist — is recorded directly.
func writeImportRun(t *testing.T, cl *Cluster) {
	t.Helper()
	m, err := meshgen.GenerateTet(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	msh, layout, err := meshgen.EncodeMsh(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := partitioner.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := partitioner.Multilevel(g, cl.cfg.Procs, partitioner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.StageFile("uns3d.msh", msh); err != nil {
		t.Fatal(err)
	}
	err = cl.Run(func(p *Proc) {
		s, err := p.Initialize("importer", Options{})
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Finalize()
		imp, err := s.MakeImportlist("uns3d.msh", []ImportSpec{
			{Name: "edge1", Type: Integer, FileOffset: layout.Edge1Offset(), Length: layout.NumEdges, Content: "INDEX"},
			{Name: "edge2", Type: Integer, FileOffset: layout.Edge2Offset(), Length: layout.NumEdges, Content: "INDEX"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", vec)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.IndexRegistry(ip, layout.NumEdges, vec); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Catalog.RegisterImport(nil, catalog.ImportEntry{
		RunID: 2, ImportedName: "edge1", FileName: "uns3d.msh", DataType: "INTEGER",
		StorageOrder: "ROW_MAJOR", Partition: "DISTRIBUTED", FileContent: "INDEX",
		FileOffset: layout.Edge1Offset(), Length: layout.NumEdges,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServeBundleOverHTTP is the end-to-end network path: one cluster
// writes a run and saves a bundle; a fresh cluster opens the bundle
// and serves it through the sdmd core; a client reads every slab over
// HTTP and must get bytes identical to the local catalog-resolved read
// — the same identity sdmcat -remote is held to in CI against a real
// second OS process.
func TestServeBundleOverHTTP(t *testing.T) {
	const (
		procs   = 4
		globalN = 1 << 12
		steps   = 3
	)
	dir := filepath.Join(t.TempDir(), "bundle")
	writer := NewCluster(ClusterConfig{Procs: procs})
	writeDemoRun(t, writer, globalN, steps)
	writeImportRun(t, writer)
	if err := writer.SaveBundle(dir); err != nil {
		t.Fatal(err)
	}

	cl, err := OpenBundle(dir, ClusterConfig{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{BlockSize: 64 << 10})
	if err := srv.Mount("bundle", server.Source{Catalog: cl.Catalog, FS: cl.FS}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	c := sdmclient.New(hs.URL)
	local := server.Source{Catalog: cl.Catalog, FS: cl.FS}
	assertSameCatalog(t, local, c)

	at, err := c.Attach(sdmclient.AttachOptions{Run: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Datasets) != 2 {
		t.Fatalf("attach saw %d datasets, want 2", len(at.Datasets))
	}

	cl.Catalog.SetAccessCost(0)
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			// Local read, exactly as sdmcat computes it.
			info, err := cl.Catalog.LookupDataset(nil, at.Run.RunID, ds)
			if err != nil || info == nil {
				t.Fatalf("LookupDataset(%s): %v %v", ds, info, err)
			}
			rec, err := cl.Catalog.LookupWrite(nil, at.Run.RunID, ds, ts)
			if err != nil || rec == nil {
				t.Fatalf("LookupWrite(%s@%d): %v %v", ds, ts, rec, err)
			}
			want := make([]byte, info.GlobalSize*8)
			h, err := cl.FS.Open(rec.FileName, pfs.ReadOnly, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ReadAt(want, rec.FileOffset); err != nil {
				t.Fatal(err)
			}

			got, err := c.ReadDataset(at.Run.RunID, ds, ts)
			if err != nil {
				t.Fatalf("remote read %s@%d: %v", ds, ts, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("remote read %s@%d: bytes differ from local bundle read", ds, ts)
			}
			if got, err := local.ReadDataset(at.Run.RunID, ds, ts); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("server.Source read %s@%d differs from local bundle read: %v", ds, ts, err)
			}
		}
	}

	// The slabs were each read once remotely after block-cache warmup
	// within the read; a second full pass must be all hits.
	before := srv.CacheStats()
	for ts := int64(0); ts < steps; ts++ {
		for _, ds := range []string{"pressure", "velocity"} {
			if _, err := c.ReadDataset(at.Run.RunID, ds, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := srv.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("warm pass added no cache hits: before %+v after %+v", before, after)
	}
	if err := c.Detach(); err != nil {
		t.Fatal(err)
	}
}

// catalogReader is the read surface server.Source and *sdmclient.Client
// share.
type catalogReader interface {
	Runs() ([]wire.Run, error)
	Datasets(run int64) ([]wire.Dataset, error)
	Writes(run int64) ([]wire.WriteRecord, error)
	Imports(run int64) ([]wire.ImportEntry, error)
	Histories() ([]wire.IndexHistory, error)
	Lookup(run int64, keys []wire.WriteKey) ([]*wire.WriteRecord, error)
	ReadDataset(run int64, dataset string, timestep int64) ([]byte, error)
}

// assertSameCatalog requires a local bundle read through server.Source
// and the same bundle served over HTTP to agree on the whole catalog —
// every table of every run — and to fail alike, with
// wire.ErrNotFound, on a run that does not exist.
func assertSameCatalog(t *testing.T, local, remote catalogReader) {
	t.Helper()
	same := func(what string, l, r any, lerr, rerr error) {
		t.Helper()
		if lerr != nil || rerr != nil {
			t.Fatalf("%s: local err %v, remote err %v", what, lerr, rerr)
		}
		if !reflect.DeepEqual(l, r) {
			t.Fatalf("%s differs:\nlocal  %+v\nremote %+v", what, l, r)
		}
	}
	lruns, lerr := local.Runs()
	rruns, rerr := remote.Runs()
	same("runs", lruns, rruns, lerr, rerr)
	if len(lruns) != 2 {
		t.Fatalf("bundle holds %d runs, want 2", len(lruns))
	}
	var imports, writes int
	for _, r := range lruns {
		ld, lerr := local.Datasets(r.RunID)
		rd, rerr := remote.Datasets(r.RunID)
		same("datasets", ld, rd, lerr, rerr)
		lw, lerr := local.Writes(r.RunID)
		rw, rerr := remote.Writes(r.RunID)
		same("writes", lw, rw, lerr, rerr)
		li, lerr := local.Imports(r.RunID)
		ri, rerr := remote.Imports(r.RunID)
		same("imports", li, ri, lerr, rerr)
		imports += len(li)
		writes += len(lw)

		keys := []wire.WriteKey{{Dataset: "pressure", Timestep: 1}, {Dataset: "nope", Timestep: 0}}
		ll, lerr := local.Lookup(r.RunID, keys)
		rl, rerr := remote.Lookup(r.RunID, keys)
		same("lookup", ll, rl, lerr, rerr)
	}
	lh, lerr := local.Histories()
	rh, rerr := remote.Histories()
	same("histories", lh, rh, lerr, rerr)
	if writes == 0 || imports == 0 || len(lh) == 0 {
		t.Fatalf("catalog too thin to compare: %d writes, %d imports, %d histories", writes, imports, len(lh))
	}

	const unknown = 99
	unknownRun := func(r catalogReader) []error {
		_, derr := r.Datasets(unknown)
		_, werr := r.Writes(unknown)
		_, ierr := r.Imports(unknown)
		_, lerr := r.Lookup(unknown, nil)
		_, rerr := r.ReadDataset(unknown, "pressure", 0)
		return []error{derr, werr, ierr, lerr, rerr}
	}
	rerrs := unknownRun(remote)
	for i, lerr := range unknownRun(local) {
		if !errors.Is(lerr, wire.ErrNotFound) || !errors.Is(rerrs[i], wire.ErrNotFound) {
			t.Fatalf("unknown run: local %v, remote %v, want wire.ErrNotFound on both", lerr, rerrs[i])
		}
		if lerr.Error() != rerrs[i].Error() {
			t.Fatalf("unknown run: local says %q, remote says %q", lerr, rerrs[i])
		}
	}
}
