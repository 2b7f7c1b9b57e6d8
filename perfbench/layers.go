package main

import (
	"sdm"
	"sdm/internal/obs"
	"sdm/internal/sim"
)

// traceKit is the observability a traced rep installs: the program's
// own span tracer and metrics registry.
type traceKit struct {
	tr  *obs.Tracer
	reg *obs.Registry
}

func newTraceKit() *traceKit { return &traceKit{tr: sdm.NewTracer(), reg: sdm.NewRegistry()} }

// install wires the kit into a fresh cluster (nil-safe for untraced reps).
func (k *traceKit) install(cl *sdm.Cluster) {
	if k == nil {
		return
	}
	cl.SetTracer(k.tr)
	cl.SetMetrics(k.reg)
}

// counter reads a registry counter by name (0 when absent).
func counter(snap map[string]int64, name string) float64 { return float64(snap[name]) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clusterLayers derives the per-layer metrics of a traced simulation
// rep from the cluster it ran on: the simulated-time split across
// layers, mpi traffic, pfs activity, core registry counters, and
// catalog/metadb counters. The cluster must be fresh (clocks and
// counters started at zero).
func clusterLayers(cl *sdm.Cluster, k *traceKit) ([]metric, error) {
	spans := k.tr.Spans()
	elapsed := make([]sim.Time, cl.Procs())
	for r := range elapsed {
		elapsed[r] = cl.World.Comm(r).Now()
	}
	split, err := splitRanks(spans, elapsed)
	if err != nil {
		return nil, err
	}
	out := split.metrics()
	snap := k.reg.Snapshot()
	mpiBytes, mpiMsgs := cl.World.Traffic()
	st := cl.FS.Stats()
	out = append(out,
		metric{Name: "catalog.sim_s", Value: catalogSeconds(spans, cl.Procs()), Unit: "sim_s",
			Note: "catalog track charge per rank"},
		metric{Name: "pfs.sim_busy_frac", Value: serverBusyFrac(spans, cl.FS.Config().NumServers), Unit: "ratio",
			Note: "server busy time over servers x trace span"},
		metric{Name: "mpi.bytes", Value: float64(mpiBytes), Unit: "bytes"},
		metric{Name: "mpi.msgs", Value: float64(mpiMsgs), Unit: "count"},
		metric{Name: "pfs.write_reqs", Value: float64(st.WriteReqs), Unit: "count"},
		metric{Name: "pfs.read_reqs", Value: float64(st.ReadRequests), Unit: "count"},
		metric{Name: "pfs.bytes_written", Value: float64(st.BytesWritten), Unit: "bytes"},
		metric{Name: "pfs.bytes_read", Value: float64(st.BytesRead), Unit: "bytes"},
		metric{Name: "pfs.opens", Value: float64(st.Opens), Unit: "count"},
		metric{Name: "pfs.views", Value: float64(st.Views), Unit: "count"},
		metric{Name: "core.steps", Value: counter(snap, "core.steps"), Unit: "count"},
		metric{Name: "core.flushed_files", Value: counter(snap, "core.flushed-files"), Unit: "count"},
		metric{Name: "core.staged_bytes", Value: counter(snap, "core.staged-bytes"), Unit: "bytes"},
	)
	return append(out, catalogLayers(snap)...), nil
}

// catalogLayers reports the catalog and metadb counters of a registry
// snapshot. metadb does not count rows returned, so the scan ratio is
// per query.
func catalogLayers(snap map[string]int64) []metric {
	queries := counter(snap, "metadb.queries")
	scanned := counter(snap, "metadb.rows-scanned")
	return []metric{
		{Name: "catalog.calls", Value: counter(snap, "catalog.calls"), Unit: "count"},
		{Name: "catalog.record_rows", Value: counter(snap, "catalog.record-rows"), Unit: "count"},
		{Name: "catalog.lookup_keys", Value: counter(snap, "catalog.lookup-keys"), Unit: "count"},
		{Name: "metadb.queries", Value: queries, Unit: "count"},
		{Name: "metadb.rows_scanned", Value: scanned, Unit: "count"},
		{Name: "metadb.index_hits", Value: counter(snap, "metadb.index-hits"), Unit: "count"},
		{Name: "metadb.scan_per_query", Value: ratio(scanned, queries), Unit: "rows/query",
			Note: "metadb counts no rows returned, so scans are given per query"},
	}
}
