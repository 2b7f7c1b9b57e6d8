package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one workload's built inputs. rep runs one repetition of the
// timed phase; k is nil for an untraced rep.
type bench interface {
	rep(k *traceKit) (*repResult, error)
	opsPerRep() int
	config() map[string]any
}

// setupTimes splits one set-up by phase.
type setupTimes struct {
	mesh, partvec, fields, stage, sourceRun, total time.Duration
}

// workload is a named benchmark case.
type workload struct {
	name  string
	why   string
	setup func(sc scale, seed uint64, workdir string) (bench, setupTimes, error)
}

// options are the run's command-line settings.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string
}

// report is everything one workload run produced.
type report struct {
	workload  string
	attempted int
	failed    int
	e2e       []metric
	layer     []metric
	config    map[string]any
}

// tailQ is the tail percentile reported. It is fixed, so it does not
// flip with the sample count between runs, and it is p90 because higher
// percentiles of host latency on a shared 2-CPU machine move with the
// neighbours' load: in six bundle-serve runs p99 spread over 1.4-5.9 ms
// while p90 stayed within 0.37-0.43 ms.
const tailQ = 0.9

// simUnits gives the units of the simulated end-to-end metrics.
var simUnits = map[string]string{
	"sim_write_MBps":   "sim_MB/s",
	"sim_read_MBps":    "sim_MB/s",
	"sim_import_s":     "sim_s",
	"sim_distribute_s": "sim_s",
	"sim_replay_s":     "sim_s",
}

// measure builds the workload's inputs setupReps times, then runs
// reps until opts.seconds have passed. With tracing, untraced and
// traced reps alternate on the same inputs.
func measure(w *workload, sc scale, o options) (*report, error) {
	heap := startHeapSampler()
	defer heap.Stop()
	var setups []setupTimes
	var b bench
	for i := 0; i < setupReps; i++ {
		b = nil // the previous build is garbage while the next one runs
		t0 := time.Now()
		nb, st, err := w.setup(sc, o.seed, o.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		st.total = time.Since(t0)
		setups = append(setups, st)
		b = nb
	}

	rep := &report{workload: w.name, config: b.config()}
	guard := &simGuard{}
	var plain, traced []*repResult
	var mem memDelta
	failedReps := 0
	deadline := time.Now().Add(o.seconds)
	for i := 0; ; i++ {
		haveAll := len(plain) > 0 && (!o.trace || len(traced) > 0)
		if (haveAll || failedReps > 0) && !time.Now().Before(deadline) {
			break
		}
		var k *traceKit
		if o.trace && i%2 == 1 {
			k = newTraceKit()
		}
		// Collect the previous rep's garbage outside the measured window,
		// so each rep starts from the same heap.
		runtime.GC()
		m0 := readMem()
		rr, err := b.rep(k)
		if k == nil {
			mem.add(m0, readMem())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s rep %d failed: %v\n", w.name, i, err)
			failedReps++
			rep.attempted += b.opsPerRep()
			rep.failed += b.opsPerRep()
			continue
		}
		label := fmt.Sprintf("rep %d (untraced)", i)
		if k != nil {
			label = fmt.Sprintf("rep %d (traced)", i)
		}
		if err := guard.check(label, rr.Sim); err != nil {
			return nil, err
		}
		rep.attempted += rr.Attempted
		rep.failed += rr.Failed
		if k != nil {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	peak := heap.Stop()
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		return nil, fmt.Errorf("%s: every rep failed (%d of %d operations)", w.name, rep.failed, rep.attempted)
	}

	// End-to-end metrics, from the untraced reps.
	var ops []float64
	var bytes int64
	var timed float64
	host := map[string][]float64{}
	for _, r := range plain {
		ops = append(ops, r.Ops...)
		bytes += r.Bytes
		timed += r.TimedSec
		for k, v := range r.Host {
			host[k] = append(host[k], v...)
		}
	}
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.total.Seconds()
	}
	tailV, q := tail(ops, tailQ)
	rep.e2e = []metric{
		{Name: "setup_s", Value: median(totals), Unit: "s", Note: fmt.Sprintf("median of %d set-ups", len(totals))},
		{Name: "op_ms_p50", Value: median(ops), Unit: "ms", Note: fmt.Sprintf("n=%d", len(ops))},
		{Name: "op_ms_tail", Value: tailV, Unit: "ms", Note: fmt.Sprintf("p%g of n=%d", q*100, len(ops))},
		{Name: "host_MBps", Value: float64(bytes) / 1e6 / timed, Unit: "MB/s",
			Note: fmt.Sprintf("%.1f MB over %.3f s timed", float64(bytes)/1e6, timed)},
		{Name: "peak_heap_MB", Value: float64(peak) / 1e6, Unit: "MB", Note: "live heap objects high-water, set-up included"},
		{Name: "failed_frac", Value: ratio(float64(rep.failed), float64(rep.attempted)), Unit: "ratio",
			Note: fmt.Sprintf("%d of %d", rep.failed, rep.attempted)},
	}
	if v, ok := host["bundle.save_ms"]; ok {
		rep.e2e = append(rep.e2e, metric{Name: "save_s", Value: median(v) / 1000, Unit: "s",
			Note: fmt.Sprintf("median of %d saves", len(v))})
	}
	for _, name := range sortedKeys(guard.first) {
		rep.e2e = append(rep.e2e, metric{Name: name, Value: guard.first[name], Unit: simUnits[name],
			Note: fmt.Sprintf("bit-identical across %d reps", len(plain)+len(traced))})
	}

	// Per-layer metrics.
	for _, name := range sortedKeys(host) {
		rep.layer = append(rep.layer, metric{Name: name, Value: median(host[name]), Unit: "ms",
			Note: fmt.Sprintf("p50 of n=%d", len(host[name]))})
	}
	nops := float64(len(ops))
	rep.layer = append(rep.layer,
		metric{Name: "go.alloc_MB_per_op", Value: float64(mem.allocBytes) / 1e6 / nops, Unit: "MB/op"},
		metric{Name: "go.allocs_per_op", Value: float64(mem.mallocs) / nops, Unit: "1/op"},
		metric{Name: "go.gc_cycles", Value: float64(mem.gcCycles) / nops, Unit: "1/op"},
		metric{Name: "go.gc_pause_ms", Value: float64(mem.pauseNs) / 1e6 / nops, Unit: "ms/op"},
	)
	phase := func(name string, get func(setupTimes) time.Duration) {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = get(s).Seconds()
		}
		rep.layer = append(rep.layer, metric{Name: name, Value: median(xs), Unit: "s",
			Note: fmt.Sprintf("median of %d set-ups", len(xs))})
	}
	phase("setup.mesh_s", func(s setupTimes) time.Duration { return s.mesh })
	phase("setup.partvec_s", func(s setupTimes) time.Duration { return s.partvec })
	phase("setup.fields_s", func(s setupTimes) time.Duration { return s.fields })
	phase("setup.stage_s", func(s setupTimes) time.Duration { return s.stage })
	if setups[0].sourceRun > 0 {
		phase("setup.source_run_s", func(s setupTimes) time.Duration { return s.sourceRun })
	}
	if len(traced) > 0 {
		rep.layer = append(rep.layer, traced[0].Layer...)
		rep.layer = append(rep.layer, metric{Name: "sim.split_jitter", Value: splitJitter(traced), Unit: "ratio",
			Note: fmt.Sprintf("largest relative change of a simulated split value over %d traced reps", len(traced))})
		tt := make([]float64, len(traced))
		for i, r := range traced {
			tt[i] = r.TimedSec
		}
		pt := make([]float64, len(plain))
		for i, r := range plain {
			pt[i] = r.TimedSec
		}
		rep.layer = append(rep.layer,
			metric{Name: "trace.spans", Value: float64(traced[0].Spans), Unit: "count"},
			metric{Name: "trace.overhead_pct", Value: (median(tt)/median(pt) - 1) * 100, Unit: "%",
				Note: fmt.Sprintf("median timed phase, %d traced vs %d untraced reps", len(tt), len(pt))},
		)
	}
	return rep, nil
}

// splitJitter is the largest relative difference of any simulated
// split value between the first traced rep and a later one. The
// end-to-end simulated metrics repeat bit for bit, but a rank's own
// split need not: pfs servers grant contended service in host arrival
// order, so which aggregator waits can change from rep to rep.
func splitJitter(traced []*repResult) float64 {
	first := map[string]float64{}
	for _, m := range traced[0].Layer {
		if m.Unit == "sim_s" {
			first[m.Name] = m.Value
		}
	}
	var worst float64
	for _, r := range traced[1:] {
		for _, m := range r.Layer {
			base, ok := first[m.Name]
			if !ok || base == m.Value {
				continue
			}
			worst = max(worst, math.Abs(m.Value-base)/math.Max(math.Abs(base), math.Abs(m.Value)))
		}
	}
	return worst
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printReport writes the human-readable lines of a report.
func printReport(r *report, layers bool) {
	fmt.Printf("== %s ==\n", r.workload)
	emit := func(kind string, ms []metric) {
		for _, m := range ms {
			note := ""
			if m.Note != "" {
				note = "  (" + m.Note + ")"
			}
			fmt.Printf("%-6s %-28s %16s %-9s%s\n", kind, m.Name, formatValue(m.Value), m.Unit, note)
		}
	}
	emit("e2e", r.e2e)
	if layers {
		emit("layer", r.layer)
	}
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
