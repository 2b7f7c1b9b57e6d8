package main

import (
	"fmt"
	"sort"
	"strings"

	"sdm/internal/obs"
	"sdm/internal/sim"
)

// Self time, computed here rather than with obs.Analyze: a step flush
// forks a sub-timeline, so a rank's spans overlap (a depth-4 pipeline
// has four step envelopes open at once) and "duration minus same-lane
// children" can go negative. Instead every instant of a rank's elapsed
// virtual time is given to exactly one bucket: the innermost layer
// covering it, or "uncovered". Covered times are then non-negative and,
// with the uncovered time, sum exactly to the elapsed time.

// layerBuckets lists the buckets from innermost (highest priority) to
// outermost. A span belongs to the first bucket whose category matches
// and whose name starts with the prefix.
var layerBuckets = []struct {
	name, cat, prefix string
}{
	{"mpiio.sim_phase2_s", "mpiio", "phase2"},
	{"mpiio.sim_phase1_s", "mpiio", "phase1"},
	{"core.sim_flush_s", "core", "flush"},
	{"core.sim_stage_s", "core", "stage"},
	{"core.sim_wait_s", "core", "wait"},
	{"core.sim_step_s", "core", "step"},
	{"other.sim_s", "", ""},
}

func bucketOf(s *obs.Span) int {
	for i, b := range layerBuckets {
		if b.cat == "" || (s.Cat == b.cat && strings.HasPrefix(s.Name, b.prefix)) {
			return i
		}
	}
	return len(layerBuckets) - 1
}

// rankSplit is the per-bucket covered virtual time summed over ranks.
type rankSplit struct {
	Covered   []int64 // ns, indexed like layerBuckets
	Uncovered int64
	Elapsed   int64
	Ranks     int
}

// splitRanks partitions each rank's elapsed virtual time [0, elapsed[r])
// across the layer buckets using that rank's spans.
func splitRanks(spans []obs.Span, elapsed []sim.Time) (*rankSplit, error) {
	type edge struct {
		at    int64
		b     int
		delta int
	}
	perRank := make([][]edge, len(elapsed))
	for i := range spans {
		s := &spans[i]
		r := s.Pid - obs.PidRank(0)
		if r < 0 || r >= len(elapsed) {
			continue
		}
		lo, hi := int64(s.Start), int64(s.End)
		if lo < 0 {
			lo = 0
		}
		if hi > int64(elapsed[r]) {
			hi = int64(elapsed[r])
		}
		if hi <= lo {
			continue
		}
		b := bucketOf(s)
		perRank[r] = append(perRank[r], edge{lo, b, 1}, edge{hi, b, -1})
	}
	out := &rankSplit{Covered: make([]int64, len(layerBuckets)), Ranks: len(elapsed)}
	active := make([]int, len(layerBuckets))
	for r, edges := range perRank {
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		clear(active)
		covered := make([]int64, len(layerBuckets))
		var prev, uncovered int64
		assign := func(upTo int64) {
			if upTo <= prev {
				return
			}
			owner := -1
			for b, n := range active {
				if n > 0 {
					owner = b
					break
				}
			}
			if owner < 0 {
				uncovered += upTo - prev
			} else {
				covered[owner] += upTo - prev
			}
			prev = upTo
		}
		for _, e := range edges {
			assign(e.at)
			active[e.b] += e.delta
		}
		end := int64(elapsed[r])
		assign(end)
		var sum int64
		for b, c := range covered {
			if c < 0 {
				return nil, fmt.Errorf("self time: rank %d bucket %s negative (%d ns)", r, layerBuckets[b].name, c)
			}
			sum += c
			out.Covered[b] += c
		}
		if sum+uncovered != end {
			return nil, fmt.Errorf("self time: rank %d covered %d + uncovered %d != elapsed %d ns", r, sum, uncovered, end)
		}
		out.Uncovered += uncovered
		out.Elapsed += end
	}
	return out, nil
}

// metrics reports the split as per-rank averages in simulated seconds.
func (s *rankSplit) metrics() []metric {
	avg := func(ns int64) float64 {
		if s.Ranks == 0 {
			return 0
		}
		return float64(ns) / float64(s.Ranks) / 1e9
	}
	out := make([]metric, 0, len(layerBuckets)+2)
	for b, c := range s.Covered {
		out = append(out, metric{Name: layerBuckets[b].name, Value: avg(c), Unit: "sim_s",
			Note: "covered time per rank, innermost layer wins"})
	}
	out = append(out,
		metric{Name: "sim.uncovered_s", Value: avg(s.Uncovered), Unit: "sim_s",
			Note: "rank time under no span (mpi collectives land here)"},
		metric{Name: "sim.elapsed_s", Value: avg(s.Elapsed), Unit: "sim_s",
			Note: "covered + uncovered, per rank"})
	return out
}

// catalogSeconds is the catalog track's charged virtual time per rank.
func catalogSeconds(spans []obs.Span, ranks int) float64 {
	var ns int64
	for i := range spans {
		if spans[i].Pid == obs.PidCatalog {
			ns += int64(spans[i].Dur())
		}
	}
	if ranks == 0 {
		return 0
	}
	return float64(ns) / float64(ranks) / 1e9
}

// serverBusyFrac is the PFS servers' busy time (union per server lane)
// over servers × the servers' trace span.
func serverBusyFrac(spans []obs.Span, servers int) float64 {
	lanes := map[int][][2]int64{}
	var lo, hi int64
	first := true
	for i := range spans {
		s := &spans[i]
		if s.Pid != obs.PidServers {
			continue
		}
		a, b := int64(s.Start), int64(s.End)
		lanes[s.Tid] = append(lanes[s.Tid], [2]int64{a, b})
		if first || a < lo {
			lo = a
		}
		if first || b > hi {
			hi = b
		}
		first = false
	}
	if first || hi <= lo || servers == 0 {
		return 0
	}
	var busy int64
	for _, iv := range lanes {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		curLo, curHi := iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curHi {
				busy += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		busy += curHi - curLo
	}
	return float64(busy) / (float64(servers) * float64(hi-lo))
}
