package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"sdm/internal/obs"
	"sdm/internal/sim"
)

// metricName is the grammar every reported metric name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	FUN3DNX: 6, Procs: 4, CkptSteps: 2,
	RTNX: 6, RTSteps: 4, RTDepth: 2,
	ServeNX: 6, ServeProcs: 4, ServeSteps: 2,
	CacheBytes: 64 << 10, BlockSize: 4 << 10,
	ServeCallers: 2, ServeRequests: 50,
	LookupShare: 0.1, LookupBatch: 4,
}

// TestSmoke runs each workload at tiny scale, traced and untraced, and
// checks that it verifies clean and reports every declared metric under
// a valid name.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, seconds: time.Millisecond, trace: true, workdir: t.TempDir()}
			r, err := measure(w, tinyScale, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("failed %d of %d operations", r.failed, r.attempted)
			}
			for _, m := range append(append([]metric(nil), r.e2e...), r.layer...) {
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q does not match %v", m.Name, metricName)
				}
				if m.Unit == "" {
					t.Errorf("metric %s has no unit", m.Name)
				}
			}
			for _, trace := range []bool{false, true} {
				res := jsonResult{Metrics: map[string]jsonMetric{}}
				if err := resultJSON(r, trace, "", &res); err != nil {
					t.Fatal(err)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			}
			names := map[string]bool{}
			for _, m := range r.layer {
				names[m.Name] = true
			}
			for _, want := range []string{"setup.mesh_s", "go.allocs_per_op", "trace.spans", "trace.overhead_pct", "catalog.calls"} {
				if !names[want] {
					t.Errorf("per-layer metric %s missing", want)
				}
			}
		})
	}
}

// TestSelfTimeOverlappingForks feeds the split two overlapping forked
// step envelopes with nested flushes — the shape that drives
// obs.Analyze's same-lane self time negative — and checks that every
// covered time is non-negative and that covered plus uncovered time is
// exactly each rank's elapsed time.
func TestSelfTimeOverlappingForks(t *testing.T) {
	tr := obs.NewTracer()
	r0 := obs.PidRank(0)
	tr.Emit(r0, "core", "step", 0, 100)
	tr.Emit(r0, "core", "flush:write", 10, 60)
	tr.Emit(r0, "mpiio", "phase1:write", 10, 30)
	tr.Emit(r0, "core", "step", 50, 150) // forked before the first step joined
	tr.Emit(r0, "core", "flush:write", 55, 140)
	tr.Emit(r0, "core", "wait", 100, 150)
	r1 := obs.PidRank(1)
	tr.Emit(r1, "core", "step", 20, 80)
	tr.Emit(r1, "core", "wait", 60, 90)
	tr.Emit(obs.PidCatalog, "catalog", "query", 0, 5)
	elapsed := []sim.Time{200, 90}

	split, err := splitRanks(tr.Spans(), elapsed)
	if err != nil {
		t.Fatal(err)
	}
	var covered int64
	for b, c := range split.Covered {
		if c < 0 {
			t.Errorf("%s covered %d ns", layerBuckets[b].name, c)
		}
		covered += c
	}
	if covered+split.Uncovered != split.Elapsed || split.Elapsed != 290 {
		t.Fatalf("covered %d + uncovered %d != elapsed %d", covered, split.Uncovered, split.Elapsed)
	}
	want := map[string]int64{
		"mpiio.sim_phase1_s": 20,       // [10,30)
		"core.sim_flush_s":   110,      // [30,140)
		"core.sim_wait_s":    10 + 30,  // [140,150) on rank 0, [60,90) on rank 1
		"core.sim_step_s":    10 + 40,  // [0,10) on rank 0, [20,60) on rank 1
		"mpiio.sim_phase2_s": 0,        // no phase-2 spans
		"core.sim_stage_s":   0,        // no staging spans
		"other.sim_s":        0,        // every span has a layer
		"sim.uncovered":      50 + 20,  // [150,200) on rank 0, [0,20) on rank 1
		"sim.elapsed":        200 + 90, // both ranks
	}
	got := map[string]int64{"sim.uncovered": split.Uncovered, "sim.elapsed": split.Elapsed}
	for b, c := range split.Covered {
		got[layerBuckets[b].name] = c
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %d ns, want %d", name, got[name], w)
		}
	}
	if c := catalogSeconds(tr.Spans(), 2); c != 2.5e-9 {
		t.Errorf("catalog.sim_s = %v, want 2.5e-9", c)
	}

	// The clock may not run past a rank's elapsed time; spans beyond it
	// are clipped, never counted twice.
	if _, err := splitRanks(tr.Spans(), []sim.Time{120, 90}); err != nil {
		t.Fatal(err)
	}
}

// TestMetricNames checks the declared metric lists against the name
// grammar and against BENCHMARK.json, whose lists the last output line
// must match.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	why := map[string]string{}
	for _, w := range workloads {
		why[w.name] = w.why
	}
	for _, w := range spec.Workloads {
		if want, ok := why[w.Name]; !ok || w.Why != want {
			t.Errorf("BENCHMARK.json workload %q (%q) does not match the program's (%q)", w.Name, w.Why, want)
		}
	}
	if len(spec.EndToEnd) != len(e2eJSON) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eJSON))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eJSON[i] || !metricName.MatchString(m.Name) {
			t.Errorf("end-to-end %d: %q, program %q", i, m.Name, e2eJSON[i])
		}
	}
	if len(spec.PerLayer) != len(layerJSON) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerJSON))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerJSON[i].name || m.Unit != layerJSON[i].unit || !metricName.MatchString(m.Name) {
			t.Errorf("per-layer %d: %s (%s), program %s (%s)", i, m.Name, m.Unit, layerJSON[i].name, layerJSON[i].unit)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q := tail(xs, 0.99); q != 0.99 || v != 990 {
		t.Errorf("p99 of 1000 = p%v %v, want p99 990", q*100, v)
	}
	if v, q := tail(xs, 0.999); q != 0.5 || v != 500.5 {
		t.Errorf("p99.9 of 1000 = p%v %v, want the median 500.5", q*100, v)
	}
	if v, q := tail(xs[:99], 0.9); q != 0.5 || v != 50 {
		t.Errorf("p90 of 99 = p%v %v, want the median 50", q*100, v)
	}
}

func TestSimGuard(t *testing.T) {
	g := &simGuard{}
	if err := g.check("rep 0", map[string]float64{"sim_write_MBps": 241.125}); err != nil {
		t.Fatal(err)
	}
	if err := g.check("rep 1", map[string]float64{"sim_write_MBps": 241.125}); err != nil {
		t.Fatal(err)
	}
	if err := g.check("rep 2", map[string]float64{"sim_write_MBps": 241.12500000000003}); err == nil {
		t.Fatal("a value one ulp off passed the guard")
	}
	if err := g.check("rep 3", map[string]float64{}); err == nil {
		t.Fatal("a missing value passed the guard")
	}
}

func TestSplitJitter(t *testing.T) {
	rep := func(flush, wait float64) *repResult {
		return &repResult{Layer: []metric{
			{Name: "core.sim_flush_s", Value: flush, Unit: "sim_s"},
			{Name: "core.sim_wait_s", Value: wait, Unit: "sim_s"},
			{Name: "pfs.opens", Value: flush * 1000, Unit: "count"},
		}}
	}
	if j := splitJitter([]*repResult{rep(1, 2)}); j != 0 {
		t.Errorf("one rep: jitter %v, want 0", j)
	}
	if j := splitJitter([]*repResult{rep(1, 2), rep(1, 2), rep(0.99, 2)}); math.Abs(j-0.01) > 1e-12 {
		t.Errorf("jitter %v, want 0.01", j)
	}
}
