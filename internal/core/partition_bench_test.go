package core

import (
	"sync"
	"testing"

	"sdm/internal/mesh"
	"sdm/internal/mpi"
	"sdm/internal/partition"
)

// Per-layer microbenchmarks of index distribution and the view path on
// a generated FUN3D tetrahedral mesh (25³ nodes, 16 ranks, multilevel
// partition). Each measures host time only; the simulated charges are
// the same as in a full run.

const benchRanks = 16

// benchMesh is the shared fixture: the staged mesh file, its
// partitioning vector and every rank's partition from a ring run.
type benchMesh struct {
	m       *mesh.Mesh
	layout  mesh.MshLayout
	msh     []byte
	partVec []int32
	parts   [benchRanks]*IndexPartition
	err     error
}

var (
	benchOnce    sync.Once
	benchFixture benchMesh
)

func loadBenchMesh(b *testing.B) *benchMesh {
	b.Helper()
	benchOnce.Do(func() {
		f := &benchFixture
		if f.m, f.err = mesh.GenerateTetEdges(24, 24, 24); f.err != nil {
			return
		}
		g, err := partition.FromEdges(f.m.NumNodes(), f.m.Edge1, f.m.Edge2)
		if err != nil {
			f.err = err
			return
		}
		if f.partVec, f.err = partition.Multilevel(g, benchRanks, partition.Options{Seed: 1}); f.err != nil {
			return
		}
		f.msh, f.layout, f.err = mesh.EncodeMsh(f.m, [][]float64{f.m.EdgeData(0)}, [][]float64{f.m.NodeData(0)})
		if f.err != nil {
			return
		}
		te := newBenchEnv(f)
		f.err = te.world.Run(func(c *mpi.Comm) {
			s, imp := benchSession(c, te, f)
			ip, err := s.PartitionIndex(imp, "edge1", "edge2", f.partVec)
			if err != nil {
				panic(err)
			}
			f.parts[c.Rank()] = ip
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		})
	})
	if benchFixture.err != nil {
		b.Fatal(benchFixture.err)
	}
	return &benchFixture
}

// newBenchEnv is a fresh 16-rank machine with the mesh file staged.
func newBenchEnv(f *benchMesh) *testEnv {
	te := newTestEnv(benchRanks)
	if err := te.fs.WriteFile("uns3d.msh", f.msh); err != nil {
		panic(err)
	}
	return te
}

// benchSession opens SDM without the catalog (no history is found or
// registered) and the mesh's import list.
func benchSession(c *mpi.Comm, te *testEnv, f *benchMesh) (*SDM, *Importer) {
	s, err := Initialize(Env{Comm: c, FS: te.fs}, "bench", Options{DisableDB: true})
	if err != nil {
		panic(err)
	}
	imp, err := s.MakeImportlist("uns3d.msh", edgeSpecs(f.layout))
	if err != nil {
		panic(err)
	}
	return s, imp
}

// runRanks runs op b.N times on every rank of a fresh machine, timing
// only the loop.
func runRanks(b *testing.B, f *benchMesh, op func(s *SDM, imp *Importer)) {
	te := newBenchEnv(f)
	b.ReportAllocs()
	err := te.world.Run(func(c *mpi.Comm) {
		s, imp := benchSession(c, te, f)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			op(s, imp)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
		if err := s.Finalize(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBuildPartition localizes rank 1's kept edges: the owned-node
// bitmap, the node walk and the prefix-count localization.
func BenchmarkBuildPartition(b *testing.B) {
	f := loadBenchMesh(b)
	ip := f.parts[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionNodes(ip.EdgeGlobal, ip.Edge1G, ip.Edge2G, ownedSet(f.partVec, 1))
	}
}

// BenchmarkRingScan is one ring distribution over 16 ranks: every rank
// scans every edge block and passes it on, then localizes its edges.
func BenchmarkRingScan(b *testing.B) {
	f := loadBenchMesh(b)
	e1, e2 := f.m.Edge1, f.m.Edge2
	total := int64(len(e1))
	runRanks(b, f, func(s *SDM, _ *Importer) {
		start, n := blockRange(total, benchRanks, s.Comm().Rank())
		s.distributeIndex(e1[start:start+n], e2[start:start+n], start, total, f.partVec)
	})
}

// BenchmarkNewView builds rank 1's edge view (ascending runs in ring
// order, so it sorts) and node view (ascending, so the identity).
func BenchmarkNewView(b *testing.B) {
	f := loadBenchMesh(b)
	ip := f.parts[1]
	for _, c := range []struct {
		name    string
		mapArr  []int32
		globalN int
	}{{"edges", ip.EdgeGlobal, f.m.NumEdges()}, {"nodes", ip.Nodes, f.m.NumNodes()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := newView(c.mapArr, 8, int64(c.globalN)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImportView is one collective import of a double array over
// 16 ranks through each rank's edge view (permuted through the reused
// file-order buffer) or node view (read in place).
func BenchmarkImportView(b *testing.B) {
	f := loadBenchMesh(b)
	for _, c := range []struct{ name, array string }{{"edges", "x"}, {"nodes", "y"}} {
		b.Run(c.name, func(b *testing.B) {
			var views [benchRanks]*View
			for r, ip := range f.parts {
				mapArr, n := ip.EdgeGlobal, f.m.NumEdges()
				if c.array == "y" {
					mapArr, n = ip.Nodes, f.m.NumNodes()
				}
				v, err := NewView(mapArr, Double, int64(n))
				if err != nil {
					b.Fatal(err)
				}
				views[r] = v
			}
			runRanks(b, f, func(s *SDM, imp *Importer) {
				if _, err := imp.ImportView(c.array, views[s.Comm().Rank()]); err != nil {
					panic(err)
				}
			})
		})
	}
}
