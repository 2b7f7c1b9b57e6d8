// Command perfbench is the repository benchmark. It builds every input
// of a workload from -seed before timing starts (meshes, partition
// vectors, field values, the source run of the served bundle), drives
// the public sdm API, sdmclient and an in-process sdmd core, checks the
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json with -trace 0, or
// its per-layer metrics with -trace 1. Run it through run.sh, which
// builds it inside the checkout:
//
//	bash perfbench/run.sh --workload ckpt-l3 --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what is left out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// scale sizes every workload.
type scale struct {
	FUN3DNX, Procs, CkptSteps       int
	RTNX, RTSteps, RTDepth          int
	ServeNX, ServeProcs, ServeSteps int
	CacheBytes, BlockSize           int64
	ServeCallers, ServeRequests     int
	LookupShare                     float64
	LookupBatch                     int
}

// fullScale is the benchmark's problem size.
var fullScale = scale{
	FUN3DNX: 48, Procs: 64, CkptSteps: 16,
	RTNX: 40, RTSteps: 32, RTDepth: 4,
	ServeNX: 32, ServeProcs: 16, ServeSteps: 8,
	CacheBytes: 8 << 20, BlockSize: 64 << 10,
	ServeCallers: 2, ServeRequests: 2000,
	LookupShare: 0.1, LookupBatch: 8,
}

// setupReps is how many times a run builds its inputs; setup_s is the
// median of the builds.
const setupReps = 3

// workloads lists the benchmark cases in the order "all" runs them.
// BENCHMARK.json lists all but rt-stream for repeated gated runs: its
// 3 ms steps make its host figures the most sensitive to the load of a
// shared machine.
var workloads = []*workload{
	{name: "ckpt-l3", setup: setupCkpt,
		why: "Level-3 two-phase collective checkpoints written and read back: core epochs, mpiio, mpi all-to-all and pfs striping carry the bytes"},
	{name: "rt-stream", setup: setupRT,
		why: "small file-per-checkpoint steps at pipeline depth 4: per-step fixed costs (pfs opens and views, catalog rows, token registry, fork/join) dominate"},
	{name: "index-dist", setup: setupIndexDist,
		why: "cold ring index distribution then replay from the history file: core partitioning and views, mpi point-to-point, catalog history lookup"},
	{name: "bundle-serve", setup: setupServe,
		why: "cas bundle save with WAL, open, and 2 closed-loop sdmclient callers through the sdmd block cache: host-time layers only"},
}

// e2eJSON and layerJSON are the metrics the last output line carries
// (the end_to_end and per_layer lists of BENCHMARK.json), with units.
// A per-layer metric a workload does not exercise is reported as 0.
var e2eJSON = []string{"setup_s", "op_ms_p50", "op_ms_tail", "host_MBps", "peak_heap_MB"}

var layerJSON = []struct{ name, unit string }{
	{"core.steps", "count"}, {"core.flushed_files", "count"}, {"core.staged_bytes", "bytes"},
	{"core.sim_flush_s", "sim_s"}, {"core.sim_stage_s", "sim_s"}, {"core.sim_wait_s", "sim_s"}, {"core.sim_step_s", "sim_s"},
	{"mpiio.sim_phase1_s", "sim_s"}, {"mpiio.sim_phase2_s", "sim_s"},
	{"catalog.sim_s", "sim_s"}, {"sim.uncovered_s", "sim_s"}, {"sim.elapsed_s", "sim_s"}, {"other.sim_s", "sim_s"},
	{"mpi.bytes", "bytes"}, {"mpi.msgs", "count"},
	{"pfs.write_reqs", "count"}, {"pfs.read_reqs", "count"}, {"pfs.bytes_written", "bytes"}, {"pfs.bytes_read", "bytes"},
	{"pfs.opens", "count"}, {"pfs.views", "count"}, {"pfs.sim_busy_frac", "ratio"},
	{"catalog.calls", "count"}, {"catalog.record_rows", "count"}, {"catalog.lookup_keys", "count"},
	{"metadb.queries", "count"}, {"metadb.rows_scanned", "count"}, {"metadb.index_hits", "count"}, {"metadb.scan_per_query", "rows/query"},
	{"bundle.store.ops", "count"}, {"bundle.store.bytes_written", "bytes"}, {"bundle.wal.records", "count"}, {"bundle.amplification", "ratio"},
	{"server.cache.hit_ratio", "ratio"}, {"server.cache.misses", "count"}, {"server.cache.waits", "count"},
	{"server.cache.evictions", "count"}, {"server.requests", "count"}, {"server.errors", "count"}, {"server.bytes_served", "bytes"},
	{"go.alloc_MB_per_op", "MB/op"}, {"go.allocs_per_op", "1/op"}, {"go.gc_cycles", "1/op"}, {"go.gc_pause_ms", "ms/op"},
	{"setup.mesh_s", "s"}, {"setup.partvec_s", "s"}, {"setup.fields_s", "s"}, {"setup.stage_s", "s"},
	{"trace.spans", "count"}, {"trace.overhead_pct", "%"},
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultJSON builds the last output line of one workload run. prefix
// namespaces the metric names when several workloads share one line.
func resultJSON(r *report, trace bool, prefix string, into *jsonResult) error {
	find := func(ms []metric, name string) (metric, bool) {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
		return metric{}, false
	}
	into.Attempted += r.attempted
	into.Failed += r.failed
	if !trace {
		for _, name := range e2eJSON {
			m, ok := find(r.e2e, name)
			if !ok {
				return fmt.Errorf("%s: end-to-end metric %s missing", r.workload, name)
			}
			into.Metrics[prefix+name] = jsonMetric{m.Value, m.Unit}
		}
		return nil
	}
	for _, l := range layerJSON {
		m, ok := find(r.layer, l.name)
		if ok && m.Unit != l.unit {
			return fmt.Errorf("%s: %s reported in %s, declared in %s", r.workload, l.name, m.Unit, l.unit)
		}
		into.Metrics[prefix+l.name] = jsonMetric{m.Value, l.unit}
	}
	return nil
}

func main() {
	name := flag.String("workload", "all", "workload to run: ckpt-l3, rt-stream, index-dist, bundle-serve, or all")
	seed := flag.Uint64("seed", 1, "seed of the partitioner, the field values and the request stream")
	seconds := flag.Float64("seconds", 30, "host seconds of repetitions to measure per workload")
	trace := flag.Int("trace", 0, "1 runs traced reps beside untraced ones and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/work", "directory for the bundles bundle-serve saves")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	var run []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, workdir: *workdir,
	}
	res := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range run {
		r, err := measure(w, fullScale, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		r.config["workload"] = w.name
		r.config["why"] = w.why
		r.config["seed"] = o.seed
		r.config["seconds"] = o.seconds.Seconds()
		r.config["trace"] = o.trace
		r.config["setup_reps"] = setupReps
		r.config["nproc"] = runtime.NumCPU()
		r.config["GOMAXPROCS"] = runtime.GOMAXPROCS(0)
		r.config["go"] = runtime.Version()
		cfg, err := json.Marshal(r.config)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("config %s\n", cfg)
		printReport(r, o.trace)
		prefix := ""
		if len(run) > 1 {
			prefix = w.name + "."
		}
		if err := resultJSON(r, o.trace, prefix, &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
