package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported number. Unit "sim_s" and "sim_MB/s" mark the
// simulated clock, which is deterministic; every other time unit is
// host time.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // percentile, sample count, or how the value was formed
}

// repResult is what one repetition of a workload reports. Sim holds the
// simulated metrics, which must repeat bit for bit across reps; Host
// holds per-layer host-time samples in milliseconds.
type repResult struct {
	Ops       []float64 // host latency of each operation, ms
	Bytes     int64     // user bytes moved (written + read, or served)
	TimedSec  float64   // host seconds of the timed phase
	Attempted int
	Failed    int
	Sim       map[string]float64
	Host      map[string][]float64
	Layer     []metric // per-layer counts and simulated split (traced reps)
	Spans     int      // spans recorded (traced reps)
}

func newRepResult() *repResult {
	return &repResult{Sim: map[string]float64{}, Host: map[string][]float64{}}
}

// addHost records a per-layer host-time sample.
func (r *repResult) addHost(name string, d time.Duration) {
	r.Host[name] = append(r.Host[name], ms(d))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs (not modified); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the q-quantile of xs by nearest rank when at least ten
// samples lie beyond it, and otherwise the median, with the percentile
// used. There is no step in between, so the reported percentile does
// not flip when the sample count drifts a little between runs.
func tail(xs []float64, q float64) (value, used float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if rank := int(math.Ceil(q * float64(n))); n-rank >= 10 {
		return s[rank-1], q
	}
	return median(s), 0.5
}

// hostBarrier lines the rank goroutines up in host time without touching
// any virtual clock, so an operation timed at rank 0 starts when every
// rank is ready and excludes the previous operation's verification.
type hostBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	gen    int
	broken bool
}

func newHostBarrier(n int) *hostBarrier {
	b := &hostBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *hostBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		panic("host barrier broken: another rank failed")
	}
}

// guard, deferred at the top of each rank function, breaks the barrier
// when the rank panics so no other rank waits forever, then re-panics
// for mpi.World.Run to report.
func (b *hostBarrier) guard() {
	if v := recover(); v != nil {
		b.mu.Lock()
		b.broken = true
		b.cond.Broadcast()
		b.mu.Unlock()
		panic(v)
	}
}

// heapSampler tracks the high-water mark of live heap objects by polling
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler polls every 2 ms, often enough to catch a peak that
// lasts one rep's GC cycle.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes. It may be called
// more than once.
func (h *heapSampler) Stop() uint64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return h.peak
}

// memDelta is the Go runtime's allocation and GC activity summed over
// measured windows.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	pauseNs             uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// add accumulates the activity between the snapshots a and b.
func (m *memDelta) add(a, b runtime.MemStats) {
	m.allocBytes += b.TotalAlloc - a.TotalAlloc
	m.mallocs += b.Mallocs - a.Mallocs
	m.gcCycles += b.NumGC - a.NumGC
	m.pauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// simGuard enforces that simulated metrics repeat bit for bit across
// every rep of a run, traced or not.
type simGuard struct {
	first map[string]float64
	from  string
}

func (g *simGuard) check(label string, sim map[string]float64) error {
	if g.first == nil {
		g.first, g.from = sim, label
		return nil
	}
	if len(sim) != len(g.first) {
		return fmt.Errorf("determinism guard: %s reports %d simulated metrics, %s reported %d",
			label, len(sim), g.from, len(g.first))
	}
	for k, v := range g.first {
		w, ok := sim[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("determinism guard: %s differs between %s (%v) and %s (%v)",
				k, g.from, v, label, w)
		}
	}
	return nil
}
