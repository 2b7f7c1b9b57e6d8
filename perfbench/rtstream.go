package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"sdm"
	"sdm/internal/mesh"
	"sdm/internal/partition"
	"sdm/internal/sim"
)

// rt-stream: the paper's second application, a Rayleigh–Taylor run that
// streams file-per-checkpoint (Level 1) steps at pipeline depth 4.
//
// Why: little data per step, so each step's fixed costs dominate: pfs
// creates, opens and views, a catalog row batch per step, the core token
// registry, and sim fork/join. The pipeline mechanism runs here and is
// bypassed in ckpt-l3.

// rtBench holds the precomputed RT fields and each rank's slices.
type rtBench struct {
	sc      scale
	nNodes  int
	nTris   int
	partVec []int32
	node    [][]float64   // [step] global node field
	tri     [][]float64   // [step] global triangle field
	local   [][][]float64 // [rank][step] owned-order node values
	triMap  [][]int32     // [rank] block map of triangles
}

func setupRT(sc scale, seed uint64, _ string) (bench, setupTimes, error) {
	var st setupTimes
	t := time.Now()
	m, err := mesh.GenerateTet(sc.RTNX, sc.RTNX, sc.RTNX)
	if err != nil {
		return nil, st, err
	}
	model := mesh.NewRT(m)
	st.mesh = time.Since(t)

	t = time.Now()
	g, err := partition.FromEdges(m.NumNodes(), m.Edge1, m.Edge2)
	if err != nil {
		return nil, st, err
	}
	pv, err := partition.Multilevel(g, sc.Procs, partition.Options{Seed: seed})
	if err != nil {
		return nil, st, err
	}
	st.partvec = time.Since(t)

	// The seed shifts the sampled instants of the instability.
	t = time.Now()
	phase := rand.New(rand.NewPCG(seed, 7)).Float64()
	b := &rtBench{sc: sc, nNodes: m.NumNodes(), nTris: model.NumTriangles(), partVec: pv}
	for ts := 0; ts < sc.RTSteps; ts++ {
		at := (float64(ts) + phase) * 0.5
		b.node = append(b.node, model.NodeDataset(at))
		b.tri = append(b.tri, model.TriangleDataset(at))
	}
	st.fields = time.Since(t)

	t = time.Now()
	b.local = make([][][]float64, sc.Procs)
	b.triMap = make([][]int32, sc.Procs)
	for r := range b.local {
		var owned []int32
		for node, part := range pv {
			if int(part) == r {
				owned = append(owned, int32(node))
			}
		}
		b.local[r] = make([][]float64, sc.RTSteps)
		for ts := range b.local[r] {
			vals := make([]float64, len(owned))
			for i, g := range owned {
				vals[i] = b.node[ts][g]
			}
			b.local[r][ts] = vals
		}
		b.triMap[r] = blockMap(int64(b.nTris), sc.Procs, r)
	}
	st.stage = time.Since(t)
	return b, st, nil
}

func (b *rtBench) opsPerRep() int { return b.sc.RTSteps }

func (b *rtBench) config() map[string]any {
	return map[string]any{
		"nx": b.sc.RTNX, "nodes": b.nNodes, "triangles": b.nTris, "procs": b.sc.Procs,
		"steps": b.sc.RTSteps, "organization": "level1", "pipeline_depth": b.sc.RTDepth,
		"step_MB": float64(b.stepBytes()) / 1e6,
	}
}

func (b *rtBench) stepBytes() int64 { return int64(b.nNodes+b.nTris) * 8 }

func (b *rtBench) rep(k *traceKit) (*repResult, error) {
	procs, steps := b.sc.Procs, b.sc.RTSteps
	cl := sdm.NewCluster(sdm.Origin2000Config(procs))
	k.install(cl)
	hb := newHostBarrier(procs)
	writeT := make([]sim.Duration, procs)
	var ops []time.Duration // rank 0 only
	err := cl.Run(func(p *sdm.Proc) {
		defer hb.guard()
		r := p.Rank()
		s, err := p.Initialize("rt", sdm.Options{Organization: sdm.Level1, StepPipelineDepth: b.sc.RTDepth})
		if err != nil {
			panic(err)
		}
		defer func() {
			if err := s.Finalize(); err != nil {
				panic(err)
			}
		}()
		owned := s.PartitionTable(b.partVec)
		triMap := b.triMap[r]
		an := sdm.MakeDatalist("node")
		an[0].GlobalSize = int64(b.nNodes)
		gn, err := s.SetAttributes(an)
		if err != nil {
			panic(err)
		}
		if _, err := gn.DataView([]string{"node"}, owned); err != nil {
			panic(err)
		}
		nodeDS, err := sdm.DatasetOf[float64](gn, "node")
		if err != nil {
			panic(err)
		}
		at := sdm.MakeDatalist("tri")
		at[0].GlobalSize = int64(b.nTris)
		gt, err := s.SetAttributes(at)
		if err != nil {
			panic(err)
		}
		if _, err := gt.DataView([]string{"tri"}, triMap); err != nil {
			panic(err)
		}
		triDS, err := sdm.DatasetOf[float64](gt, "tri")
		if err != nil {
			panic(err)
		}
		var lo, hi int
		if len(triMap) > 0 {
			lo, hi = int(triMap[0]), int(triMap[0])+len(triMap)
		}

		p.Comm.Barrier()
		t0 := p.Comm.Now()
		for ts := 0; ts < steps; ts++ {
			hb.wait()
			h0 := time.Now()
			if err := s.BeginStep(int64(ts)); err != nil {
				panic(err)
			}
			if err := nodeDS.Put(b.local[r][ts]); err != nil {
				panic(err)
			}
			if err := triDS.Put(b.tri[ts][lo:hi]); err != nil {
				panic(err)
			}
			if _, err := s.EndStepAsync(); err != nil {
				panic(err)
			}
			if ts == steps-1 {
				if err := s.DrainSteps(); err != nil {
					panic(err)
				}
			}
			if r == 0 {
				ops = append(ops, time.Since(h0))
			}
		}
		p.Comm.Barrier()
		writeT[r] = p.Comm.Now().Sub(t0)
	})
	if err != nil {
		return nil, err
	}
	rr := newRepResult()
	for _, d := range ops {
		rr.Ops = append(rr.Ops, ms(d))
		rr.TimedSec += d.Seconds()
		rr.addHost("core.write_step_ms", d)
	}
	var writeSim sim.Duration
	for _, d := range writeT {
		writeSim = max(writeSim, d)
	}
	total := int64(steps) * b.stepBytes()
	rr.Bytes = total
	rr.Attempted = steps
	rr.Sim["sim_write_MBps"] = float64(total) / 1e6 / writeSim.Seconds()
	if k != nil {
		if rr.Layer, err = clusterLayers(cl, k); err != nil {
			return nil, err
		}
		rr.Spans = k.tr.SpanCount()
	}
	// Verification reads the catalog and the files after the per-layer
	// counters were taken, so it does not show in them.
	bad, err := b.verify(cl)
	if err != nil {
		return nil, err
	}
	rr.Failed = bad
	return rr, nil
}

// verify checks every checkpoint file byte for byte against the
// precomputed fields and returns the number of steps with a mismatch.
func (b *rtBench) verify(cl *sdm.Cluster) (int, error) {
	runs, err := cl.Catalog.Runs(nil)
	if err != nil {
		return 0, err
	}
	if len(runs) != 1 {
		return 0, fmt.Errorf("rt-stream: %d runs registered, want 1", len(runs))
	}
	bad := 0
	for ts := range b.node {
		ok := true
		for _, c := range []struct {
			name string
			want []float64
		}{{"node", b.node[ts]}, {"tri", b.tri[ts]}} {
			rec, err := cl.Catalog.LookupWrite(nil, runs[0].RunID, c.name, int64(ts))
			if err != nil {
				return 0, err
			}
			if rec == nil {
				ok = false
				continue
			}
			data, err := cl.ReadFile(rec.FileName)
			if err != nil {
				return 0, err
			}
			ok = ok && equalFloat64s(data, rec.FileOffset, c.want)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

// equalFloat64s reports whether data[off:] holds want, little-endian.
func equalFloat64s(data []byte, off int64, want []float64) bool {
	if off < 0 || int64(len(data))-off < int64(len(want))*8 {
		return false
	}
	for i, v := range want {
		if binary.LittleEndian.Uint64(data[off+int64(i)*8:]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}
