package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sdm"
	"sdm/internal/mesh"
	"sdm/internal/partition"
	"sdm/internal/sim"
)

// ckpt-l3: FUN3D checkpoints under the Level-3 file organization, written
// with two-phase collective I/O and read back.
//
// Why: it is the bulk-data path through core epochs, mpiio two-phase
// I/O, mpi all-to-all and pfs striping, with writes beside reads, while
// metadb, store and server stay nearly idle.

// fun3dMesh is a generated FUN3D mesh and its partitioning vector.
type fun3dMesh struct {
	mesh    *mesh.Mesh
	partVec []int32
}

// buildFUN3D generates the nx^3 tetrahedral mesh and partitions its node
// graph into procs parts with the run's seed.
func buildFUN3D(nx, procs int, seed uint64, st *setupTimes) (*fun3dMesh, error) {
	t := time.Now()
	m, err := mesh.GenerateTetEdges(nx, nx, nx)
	if err != nil {
		return nil, err
	}
	st.mesh = time.Since(t)
	t = time.Now()
	g, err := partition.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		return nil, err
	}
	pv, err := partition.Multilevel(g, procs, partition.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	st.partvec = time.Since(t)
	return &fun3dMesh{mesh: m, partVec: pv}, nil
}

// seededField returns n values drawn from the stream (seed, stream).
func seededField(n int, seed, stream uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, stream))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * 1000
	}
	return out
}

// ckptNames are the four node-sized datasets of a checkpoint; "flux" is
// the fifth, five times larger.
var ckptNames = []string{"p", "q", "r", "w"}

// ckptRank is one rank's inputs: its map arrays and the base values of
// its slice of each dataset. Step ts writes base + ts.
type ckptRank struct {
	owned, block []int32
	base         [5][]float64 // four node datasets, then flux
	put, get     [5][]float64 // scratch buffers, reused every step
}

// ckptInputs is the per-rank input set of a checkpoint run.
type ckptInputs struct {
	procs   int
	nNodes  int64
	steps   int
	partVec []int32
	ranks   []*ckptRank
}

// buildCkpt synthesizes the seeded fields and slices them per rank.
func buildCkpt(f *fun3dMesh, procs, steps int, seed uint64, st *setupTimes) *ckptInputs {
	nNodes := int64(f.mesh.NumNodes())
	t := time.Now()
	var global [5][]float64
	for d := range global {
		n := nNodes
		if d == 4 {
			n = 5 * nNodes
		}
		global[d] = seededField(int(n), seed, uint64(d))
	}
	st.fields = time.Since(t)

	t = time.Now()
	in := &ckptInputs{procs: procs, nNodes: nNodes, steps: steps, partVec: f.partVec,
		ranks: make([]*ckptRank, procs)}
	for r := range in.ranks {
		rk := &ckptRank{block: blockMap(5*nNodes, procs, r)}
		for node, part := range f.partVec {
			if int(part) == r {
				rk.owned = append(rk.owned, int32(node))
			}
		}
		for d := range rk.base {
			idx := rk.owned
			if d == 4 {
				idx = rk.block
			}
			rk.base[d] = make([]float64, len(idx))
			for i, g := range idx {
				rk.base[d][i] = global[d][g]
			}
			rk.put[d] = make([]float64, len(idx))
			rk.get[d] = make([]float64, len(idx))
		}
		in.ranks[r] = rk
	}
	st.stage = time.Since(t)
	return in
}

// blockMap is the contiguous equal-division map array of rank of size.
func blockMap(globalN int64, size, rank int) []int32 {
	per, rem := globalN/int64(size), globalN%int64(size)
	start := int64(rank)*per + min(int64(rank), rem)
	count := per
	if int64(rank) < rem {
		count++
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(start + int64(i))
	}
	return out
}

// stepBytes is the user bytes one checkpoint step moves.
func (in *ckptInputs) stepBytes() int64 { return (4*in.nNodes + 5*in.nNodes) * 8 }

// ckptRun is what runCheckpoints measured.
type ckptRun struct {
	writeOps, readOps []time.Duration // rank 0, per step
	writeSim, readSim sim.Duration    // max over ranks
	badReads          int             // read steps where any rank read wrong values
}

// runCheckpoints writes in.steps Level-3 checkpoints at pipeline depth 1
// and, with readBack, reads them all back and checks every value. Each
// step is timed at rank 0 from a host barrier, so verification and
// buffer filling stay outside the timed operation.
func runCheckpoints(cl *sdm.Cluster, in *ckptInputs, readBack bool) (*ckptRun, error) {
	procs := in.procs
	hb := newHostBarrier(procs)
	writeT := make([]sim.Duration, procs)
	readT := make([]sim.Duration, procs)
	bad := make([][]bool, procs)
	out := &ckptRun{} // op slices are written by rank 0 only
	err := cl.Run(func(p *sdm.Proc) {
		defer hb.guard()
		r := p.Rank()
		rk := in.ranks[r]
		s, err := p.Initialize("ckpt", sdm.Options{Organization: sdm.Level3, StepPipelineDepth: 1})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()
		owned := s.PartitionTable(in.partVec)
		if len(owned) != len(rk.owned) {
			panic(fmt.Sprintf("rank %d owns %d nodes, inputs built for %d", r, len(owned), len(rk.owned)))
		}
		attrsA := sdm.MakeDatalist(ckptNames...)
		for i := range attrsA {
			attrsA[i].GlobalSize = in.nNodes
		}
		ga, err := s.SetAttributes(attrsA)
		if err != nil {
			panic(err)
		}
		if _, err := ga.DataView(ckptNames, owned); err != nil {
			panic(err)
		}
		attrsB := sdm.MakeDatalist("flux")
		attrsB[0].GlobalSize = 5 * in.nNodes
		gb, err := s.SetAttributes(attrsB)
		if err != nil {
			panic(err)
		}
		if _, err := gb.DataView([]string{"flux"}, rk.block); err != nil {
			panic(err)
		}
		var ds [5]*sdm.Dataset[float64]
		for d, name := range append(append([]string(nil), ckptNames...), "flux") {
			g := ga
			if d == 4 {
				g = gb
			}
			if ds[d], err = sdm.DatasetOf[float64](g, name); err != nil {
				panic(err)
			}
		}

		p.Comm.Barrier()
		t0 := p.Comm.Now()
		for ts := 0; ts < in.steps; ts++ {
			for d := range rk.put {
				for i, v := range rk.base[d] {
					rk.put[d][i] = v + float64(ts)
				}
			}
			hb.wait()
			h0 := time.Now()
			if err := s.BeginStep(int64(ts * 10)); err != nil {
				panic(err)
			}
			for d := range ds {
				if err := ds[d].Put(rk.put[d]); err != nil {
					panic(err)
				}
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			if ts == in.steps-1 {
				if err := s.DrainSteps(); err != nil {
					panic(err)
				}
			}
			if r == 0 {
				out.writeOps = append(out.writeOps, time.Since(h0))
			}
		}
		p.Comm.Barrier()
		t1 := p.Comm.Now()
		writeT[r] = t1.Sub(t0)
		if !readBack {
			return
		}
		bad[r] = make([]bool, in.steps)
		for ts := 0; ts < in.steps; ts++ {
			hb.wait()
			h0 := time.Now()
			if err := s.BeginStep(int64(ts * 10)); err != nil {
				panic(err)
			}
			for d := range ds {
				if err := ds[d].Get(rk.get[d]); err != nil {
					panic(err)
				}
			}
			if err := s.EndStep(); err != nil {
				panic(err)
			}
			if r == 0 {
				out.readOps = append(out.readOps, time.Since(h0))
			}
			for d := range rk.get {
				for i, v := range rk.base[d] {
					if rk.get[d][i] != v+float64(ts) {
						bad[r][ts] = true
						break
					}
				}
			}
		}
		p.Comm.Barrier()
		readT[r] = p.Comm.Now().Sub(t1)
	})
	if err != nil {
		return nil, err
	}
	for r := 0; r < procs; r++ {
		out.writeSim = max(out.writeSim, writeT[r])
		out.readSim = max(out.readSim, readT[r])
	}
	if readBack {
		for ts := 0; ts < in.steps; ts++ {
			for r := 0; r < procs; r++ {
				if bad[r][ts] {
					out.badReads++
					break
				}
			}
		}
	}
	return out, nil
}

// ckptBench is the ckpt-l3 workload's built inputs.
type ckptBench struct {
	sc scale
	in *ckptInputs
}

func setupCkpt(sc scale, seed uint64, _ string) (bench, setupTimes, error) {
	var st setupTimes
	f, err := buildFUN3D(sc.FUN3DNX, sc.Procs, seed, &st)
	if err != nil {
		return nil, st, err
	}
	return &ckptBench{sc: sc, in: buildCkpt(f, sc.Procs, sc.CkptSteps, seed, &st)}, st, nil
}

func (b *ckptBench) opsPerRep() int { return 2 * b.in.steps }

func (b *ckptBench) config() map[string]any {
	return map[string]any{
		"nx": b.sc.FUN3DNX, "nodes": b.in.nNodes, "edges": mesh.EdgeCount(b.sc.FUN3DNX, b.sc.FUN3DNX, b.sc.FUN3DNX),
		"procs": b.in.procs, "steps": b.in.steps, "organization": "level3", "pipeline_depth": 1,
		"step_MB": float64(b.in.stepBytes()) / 1e6,
	}
}

func (b *ckptBench) rep(k *traceKit) (*repResult, error) {
	cl := sdm.NewCluster(sdm.Origin2000Config(b.in.procs))
	k.install(cl)
	run, err := runCheckpoints(cl, b.in, true)
	if err != nil {
		return nil, err
	}
	rr := newRepResult()
	for _, d := range run.writeOps {
		rr.addHost("core.write_step_ms", d)
	}
	for _, d := range run.readOps {
		rr.addHost("core.read_step_ms", d)
	}
	for _, d := range append(run.writeOps, run.readOps...) {
		rr.Ops = append(rr.Ops, ms(d))
		rr.TimedSec += d.Seconds()
	}
	total := int64(b.in.steps) * b.in.stepBytes()
	rr.Bytes = 2 * total
	rr.Attempted = 2 * b.in.steps
	rr.Failed = run.badReads
	rr.Sim["sim_write_MBps"] = float64(total) / 1e6 / run.writeSim.Seconds()
	rr.Sim["sim_read_MBps"] = float64(total) / 1e6 / run.readSim.Seconds()
	if k != nil {
		if rr.Layer, err = clusterLayers(cl, k); err != nil {
			return nil, err
		}
		rr.Spans = k.tr.SpanCount()
	}
	return rr, nil
}
