package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdm/internal/mpiio"
)

// oracleBuildPartition is the map- and sort.Slice-based node
// localization that partitionNodes replaced, kept as a differential
// oracle: the same fields, values and order for every input.
func oracleBuildPartition(me int32, keptG, kept1, kept2, partVec []int32) *IndexPartition {
	present := make(map[int32]bool, len(kept1)*2)
	for i := range kept1 {
		present[kept1[i]] = true
		present[kept2[i]] = true
	}
	var nodes []int32
	for node, r := range partVec {
		if r == me || present[int32(node)] {
			nodes = append(nodes, int32(node))
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	owned := make([]bool, len(nodes))
	var ownedNodes []int32
	g2l := make(map[int32]int32, len(nodes))
	for i, n := range nodes {
		g2l[n] = int32(i)
		owned[i] = partVec[n] == me
		if owned[i] {
			ownedNodes = append(ownedNodes, n)
		}
	}
	e1l := make([]int32, len(kept1))
	e2l := make([]int32, len(kept2))
	for i := range kept1 {
		e1l[i] = g2l[kept1[i]]
		e2l[i] = g2l[kept2[i]]
	}
	return &IndexPartition{
		EdgeGlobal: keptG,
		Edge1G:     kept1,
		Edge2G:     kept2,
		Edge1L:     e1l,
		Edge2L:     e2l,
		Nodes:      nodes,
		Owned:      owned,
		OwnedNodes: ownedNodes,
	}
}

// oracleView is the sort.Slice-based permutation plus an independent
// flattening of the view's datatype: one segment per run of adjacent
// global indices, in ascending order.
func oracleView(mapArr []int32, elemSize, globalN int64) (perm []int32, segs []mpiio.Segment, err error) {
	perm = make([]int32, len(mapArr))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool { return mapArr[perm[a]] < mapArr[perm[b]] })
	for i, p := range perm {
		g := mapArr[p]
		if g < 0 || int64(g) >= globalN {
			return nil, nil, fmt.Errorf("core: map entry %d out of range [0,%d)", g, globalN)
		}
		if i > 0 && mapArr[perm[i-1]] == g {
			return nil, nil, fmt.Errorf("core: duplicate global index %d in map array", g)
		}
		off := int64(g) * elemSize
		if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len == off {
			segs[n-1].Len += elemSize
		} else {
			segs = append(segs, mpiio.Segment{Off: off, Len: elemSize})
		}
	}
	return perm, segs, nil
}

// randomPartVec assigns n nodes to ranks [0, p), leaving rank `empty`
// (when in range) without a node.
func randomPartVec(rng *rand.Rand, n, p, empty int) []int32 {
	pv := make([]int32, n)
	for i := range pv {
		r := rng.IntN(p)
		if r == empty {
			r = (r + 1) % p
		}
		pv[i] = int32(r)
	}
	return pv
}

// randomKept draws m edges with in-range endpoints and increasing ids,
// as the ring scan or a history file hands them to buildPartition.
func randomKept(rng *rand.Rand, m, nNodes int) (keptG, kept1, kept2 []int32) {
	g := int32(0)
	for i := 0; i < m; i++ {
		g += 1 + int32(rng.IntN(3))
		keptG = append(keptG, g)
		kept1 = append(kept1, int32(rng.IntN(nNodes)))
		kept2 = append(kept2, int32(rng.IntN(nNodes)))
	}
	return keptG, kept1, kept2
}

func TestPartitionNodesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(name string, me int32, keptG, kept1, kept2, partVec []int32) {
		t.Helper()
		got := partitionNodes(keptG, kept1, kept2, ownedSet(partVec, me))
		want := oracleBuildPartition(me, keptG, kept1, kept2, partVec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rank %d of %d nodes, %d kept edges:\n got %+v\nwant %+v",
				name, me, len(partVec), len(kept1), got, want)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		if trial%10 == 0 {
			n = 64 * (1 + rng.IntN(4)) // bitmap ends on a word boundary
		}
		p := 1 + rng.IntN(8)
		empty := rng.IntN(p + 1) // == p: every rank owns something
		partVec := randomPartVec(rng, n, p, empty)
		for me := int32(0); me < int32(p); me++ {
			// Only edges touching me (the ring scan's output), arbitrary
			// in-range edges (a history file's), and no edges at all:
			// the last leaves owned nodes isolated.
			g, a, b := randomKept(rng, rng.IntN(4*n), n)
			var tg, ta, tb []int32
			for i := range a {
				if partVec[a[i]] == me || partVec[b[i]] == me {
					tg, ta, tb = append(tg, g[i]), append(ta, a[i]), append(tb, b[i])
				}
			}
			check("touching", me, tg, ta, tb, partVec)
			check("arbitrary", me, g, a, b, partVec)
			check("no edges", me, []int32{}, []int32{}, []int32{}, partVec)
			check("nil edges", me, nil, nil, nil, partVec)
		}
	}
	// A rank that owns nothing and keeps nothing has no nodes at all.
	check("empty rank", 3, nil, nil, nil, []int32{0, 1, 2, 0})
	check("no nodes", 0, nil, nil, nil, nil)
}

func TestNewViewMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	check := func(name string, mapArr []int32, elemSize, globalN int64) {
		t.Helper()
		wantPerm, wantSegs, wantErr := oracleView(mapArr, elemSize, globalN)
		v, err := newView(mapArr, elemSize, globalN)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, oracle %v", name, err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(v.perm, wantPerm) {
			t.Fatalf("%s: perm %v, oracle %v", name, v.perm, wantPerm)
		}
		if got := v.dtype.Segments(); !slices.Equal(got, wantSegs) {
			t.Fatalf("%s: segments %v, oracle %v", name, got, wantSegs)
		}
		if v.dtype.Extent() != globalN*elemSize || v.dtype.Size() != int64(len(mapArr))*elemSize {
			t.Fatalf("%s: extent %d size %d, want %d and %d", name,
				v.dtype.Extent(), v.dtype.Size(), globalN*elemSize, int64(len(mapArr))*elemSize)
		}
		if v.identity != slices.Equal(wantPerm, identityPerm(len(mapArr))) {
			t.Fatalf("%s: identity %v for perm %v", name, v.identity, wantPerm)
		}
	}
	for trial := 0; trial < 300; trial++ {
		globalN := int64(1 + rng.IntN(500))
		elemSize := []int64{4, 8, 24}[rng.IntN(3)]
		// A random subset of the global indices, ascending.
		var sorted []int32
		for g := int32(0); int64(g) < globalN; g++ {
			if rng.IntN(3) == 0 {
				sorted = append(sorted, g)
			}
		}
		check("sorted", sorted, elemSize, globalN)

		shuffled := slices.Clone(sorted)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check("unsorted", shuffled, elemSize, globalN)

		// Ascending runs in rotated order, as the ring scan keeps edges:
		// the own block first, then each predecessor's.
		if len(sorted) > 0 {
			k := 1 + rng.IntN(8)
			var runs []int32
			for r := 0; r < k; r++ {
				lo, hi := len(sorted)*r/k, len(sorted)*(r+1)/k
				runs = append(slices.Clone(sorted[lo:hi]), runs...)
			}
			check("rotated runs", runs, elemSize, globalN)

			bad := slices.Clone(shuffled)
			bad[rng.IntN(len(bad))] = -1 - int32(rng.IntN(5))
			check("negative", bad, elemSize, globalN)
			bad[rng.IntN(len(bad))] = int32(globalN) + int32(rng.IntN(5))
			check("out of range", bad, elemSize, globalN)

			dup := append(slices.Clone(sorted), sorted[rng.IntN(len(sorted))])
			check("duplicate unsorted", dup, elemSize, globalN)
			slices.Sort(dup)
			check("duplicate sorted", dup, elemSize, globalN)
		}
	}
	check("empty", nil, 8, 10)
	check("extremes", []int32{-1 << 31, 1<<31 - 1, 0}, 8, 10)
}

func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}
