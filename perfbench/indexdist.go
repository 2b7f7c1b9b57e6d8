package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"sdm"
	"sdm/internal/mesh"
	"sdm/internal/sim"
)

// index-dist: Fig. 5's SDM bars. One operation is a cold job (collective
// edge import, ring index distribution, IndexRegistry, and the 8 data
// arrays imported through views) followed by a replay job on the same
// storage, whose distribution is served from the history file.
//
// Why: it is the only workload that runs core index partitioning and
// view building, mpi point-to-point traffic, and the catalog history
// lookup. It does almost no pfs writing.

const mshName = "uns3d.msh"

// idxBench holds the staged mesh file and the values it carries.
type idxBench struct {
	sc       scale
	partVec  []int32
	layout   mesh.MshLayout
	msh      []byte
	edgeData [][]float64
	nodeData [][]float64
	specs    []sdm.ImportSpec
}

const idxArrays = 4 // edge arrays and node arrays each, as in the paper

func setupIndexDist(sc scale, seed uint64, _ string) (bench, setupTimes, error) {
	var st setupTimes
	f, err := buildFUN3D(sc.FUN3DNX, sc.Procs, seed, &st)
	if err != nil {
		return nil, st, err
	}
	t := time.Now()
	b := &idxBench{sc: sc, partVec: f.partVec}
	for k := 0; k < idxArrays; k++ {
		b.edgeData = append(b.edgeData, seededField(f.mesh.NumEdges(), seed, uint64(100+k)))
		b.nodeData = append(b.nodeData, seededField(f.mesh.NumNodes(), seed, uint64(200+k)))
	}
	st.fields = time.Since(t)

	t = time.Now()
	b.msh, b.layout, err = mesh.EncodeMsh(f.mesh, b.edgeData, b.nodeData)
	if err != nil {
		return nil, st, err
	}
	l := b.layout
	b.specs = []sdm.ImportSpec{
		{Name: "edge1", Type: sdm.Integer, FileOffset: l.Edge1Offset(), Length: l.NumEdges, Content: "INDEX"},
		{Name: "edge2", Type: sdm.Integer, FileOffset: l.Edge2Offset(), Length: l.NumEdges, Content: "INDEX"},
	}
	for k := 0; k < idxArrays; k++ {
		b.specs = append(b.specs,
			sdm.ImportSpec{Name: fmt.Sprintf("edgedata%d", k), Type: sdm.Double,
				FileOffset: l.EdgeDataOffset(k), Length: l.NumEdges},
			sdm.ImportSpec{Name: fmt.Sprintf("nodedata%d", k), Type: sdm.Double,
				FileOffset: l.NodeDataOffset(k), Length: l.NumNodes})
	}
	st.stage = time.Since(t)
	return b, st, nil
}

func (b *idxBench) opsPerRep() int { return 1 }

func (b *idxBench) config() map[string]any {
	return map[string]any{
		"nx": b.sc.FUN3DNX, "nodes": b.layout.NumNodes, "edges": b.layout.NumEdges, "procs": b.sc.Procs,
		"edge_arrays": idxArrays, "node_arrays": idxArrays, "msh_MB": float64(len(b.msh)) / 1e6,
	}
}

// idxJob is one job's per-rank results.
type idxJob struct {
	wall         time.Duration
	importT      []sim.Duration
	distT        []sim.Duration
	fromHistory  []bool
	edges, nodes [][]int32
	data         [][][]byte    // [rank][array]: edge arrays, then node arrays
	partition    time.Duration // rank 0 host times
	views        time.Duration
	registry     time.Duration
}

// job runs one import-and-partition job on cl: the cold job registers
// its distribution, a replay job finds it in the history.
func (b *idxBench) job(cl *sdm.Cluster, register bool) (*idxJob, error) {
	procs := b.sc.Procs
	j := &idxJob{
		importT: make([]sim.Duration, procs), distT: make([]sim.Duration, procs),
		fromHistory: make([]bool, procs), edges: make([][]int32, procs), nodes: make([][]int32, procs),
		data: make([][][]byte, procs),
	}
	t0 := time.Now()
	err := cl.Run(func(p *sdm.Proc) {
		r := p.Rank()
		s, err := p.Initialize("fun3d", sdm.Options{})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()
		imp, err := s.MakeImportlist(mshName, b.specs)
		if err != nil {
			panic(err)
		}
		h := time.Now()
		ip, err := s.PartitionIndex(imp, "edge1", "edge2", b.partVec)
		if err != nil {
			panic(err)
		}
		if r == 0 {
			j.partition = time.Since(h)
		}
		h = time.Now()
		edgeView, err := sdm.NewView(ip.EdgeGlobal, sdm.Double, b.layout.NumEdges)
		if err != nil {
			panic(err)
		}
		nodeView, err := sdm.NewView(ip.Nodes, sdm.Double, b.layout.NumNodes)
		if err != nil {
			panic(err)
		}
		v0 := p.Comm.Now()
		data := make([][]byte, 0, 2*idxArrays)
		for _, prefix := range []string{"edgedata", "nodedata"} {
			view := edgeView
			if prefix == "nodedata" {
				view = nodeView
			}
			for k := 0; k < idxArrays; k++ {
				buf, err := imp.ImportView(fmt.Sprintf("%s%d", prefix, k), view)
				if err != nil {
					panic(err)
				}
				data = append(data, buf)
			}
		}
		j.importT[r] = ip.ImportTime + p.Comm.Now().Sub(v0)
		if r == 0 {
			j.views = time.Since(h)
		}
		if register && !ip.FromHistory {
			h = time.Now()
			if err := s.IndexRegistry(ip, b.layout.NumEdges, b.partVec); err != nil {
				panic(err)
			}
			if r == 0 {
				j.registry = time.Since(h)
			}
		}
		if err := imp.Release(); err != nil {
			panic(err)
		}
		j.distT[r] = ip.DistributeTime
		j.fromHistory[r] = ip.FromHistory
		j.edges[r] = ip.EdgeGlobal
		j.nodes[r] = ip.Nodes
		j.data[r] = data
	})
	j.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	return j, nil
}

// dataOK checks every imported value against the staged arrays.
func (b *idxBench) dataOK(j *idxJob) bool {
	for r := range j.data {
		for a, buf := range j.data[r] {
			idx, src := j.edges[r], b.edgeData
			if a >= idxArrays {
				idx, src = j.nodes[r], b.nodeData
			}
			want := src[a%idxArrays]
			if len(buf) != 8*len(idx) {
				return false
			}
			for i, g := range idx {
				if binary.LittleEndian.Uint64(buf[8*i:]) != math.Float64bits(want[g]) {
					return false
				}
			}
		}
	}
	return true
}

func (b *idxBench) rep(k *traceKit) (*repResult, error) {
	cl := sdm.NewCluster(sdm.Origin2000Config(b.sc.Procs))
	k.install(cl)
	if err := cl.StageFile(mshName, b.msh); err != nil {
		return nil, err
	}
	cold, err := b.job(cl, true)
	if err != nil {
		return nil, err
	}
	ok := b.dataOK(cold) && !slices.Contains(cold.fromHistory, true)
	cold.data = nil
	replay, err := b.job(cl, false)
	if err != nil {
		return nil, err
	}
	ok = ok && b.dataOK(replay) && !slices.Contains(replay.fromHistory, false)
	for r := range cold.edges {
		ok = ok && slices.Equal(sortedCopy(cold.edges[r]), sortedCopy(replay.edges[r])) &&
			slices.Equal(cold.nodes[r], replay.nodes[r])
	}

	rr := newRepResult()
	pair := cold.wall + replay.wall
	rr.Ops = []float64{ms(pair)}
	rr.TimedSec = pair.Seconds()
	rr.Bytes = 2 * b.layout.TotalSize()
	rr.Attempted = 1
	if !ok {
		rr.Failed = 1
	}
	rr.addHost("core.partition_index_ms", cold.partition)
	rr.addHost("core.replay_index_ms", replay.partition)
	rr.addHost("core.import_view_ms", cold.views)
	rr.addHost("core.registry_ms", cold.registry)
	maxOf := func(ds []sim.Duration) float64 {
		var m sim.Duration
		for _, d := range ds {
			m = max(m, d)
		}
		return m.Seconds()
	}
	rr.Sim["sim_import_s"] = maxOf(cold.importT)
	rr.Sim["sim_distribute_s"] = maxOf(cold.distT)
	rr.Sim["sim_replay_s"] = maxOf(replay.distT)
	if k != nil {
		if rr.Layer, err = clusterLayers(cl, k); err != nil {
			return nil, err
		}
		rr.Spans = k.tr.SpanCount()
	}
	return rr, nil
}

func sortedCopy(xs []int32) []int32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}
