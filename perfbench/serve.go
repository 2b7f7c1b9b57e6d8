package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sdm"
	"sdm/internal/obs"
	"sdm/internal/server"
	"sdm/internal/wire"
	"sdm/sdmclient"
)

// bundle-serve: a FUN3D run built in set-up is saved as a cas bundle
// with the WAL on, reopened, mounted in an in-process sdmd core on
// loopback, and read by closed-loop sdmclient callers issuing a seeded
// mix of Zipf(1.1) ranged reads and batched lookups.
//
// Why: it exercises only the host-time layers: store (cas) plus the
// WAL, metadb Save and Load, the server cache, wire and sdmclient. The
// working set is larger than the cache, so both hits and evictions show.

// slab is one (dataset, timestep) array of the source run and its bytes.
type slab struct {
	key  wire.WriteKey
	rec  wire.WriteRecord
	data []byte
}

// request is one caller operation: a ranged read of a slab, or a batched
// lookup of several slabs' placements.
type request struct {
	slab   int // read target; -1 for a lookup
	off, n int64
	lookup []int // slabs whose placements are looked up
}

type serveBench struct {
	sc       scale
	workdir  string
	src      *sdm.Cluster
	runID    int64
	slabs    []slab
	srcBytes int64 // simulated file bytes of the source run
	streams  [][]request
}

func setupServe(sc scale, seed uint64, workdir string) (bench, setupTimes, error) {
	var st setupTimes
	f, err := buildFUN3D(sc.ServeNX, sc.ServeProcs, seed, &st)
	if err != nil {
		return nil, st, err
	}
	in := buildCkpt(f, sc.ServeProcs, sc.ServeSteps, seed, &st)
	slicing := st.stage

	t := time.Now()
	src := sdm.NewCluster(sdm.Origin2000Config(sc.ServeProcs))
	if _, err := runCheckpoints(src, in, false); err != nil {
		return nil, st, fmt.Errorf("source run: %w", err)
	}
	st.sourceRun = time.Since(t)

	// Expected bodies and the request streams.
	t = time.Now()
	b := &serveBench{sc: sc, workdir: workdir, src: src}
	runs, err := src.Catalog.Runs(nil)
	if err != nil || len(runs) != 1 {
		return nil, st, fmt.Errorf("source run: %d runs registered (%v)", len(runs), err)
	}
	b.runID = runs[0].RunID
	recs, err := src.Catalog.WritesForRun(nil, b.runID)
	if err != nil {
		return nil, st, err
	}
	files := map[string][]byte{}
	for _, name := range src.ListFiles() {
		data, err := src.ReadFile(name)
		if err != nil {
			return nil, st, err
		}
		files[name] = data
		b.srcBytes += int64(len(data))
	}
	type block struct {
		slab   int
		off, n int64
	}
	var blocks []block
	for _, rec := range recs {
		info, err := src.Catalog.LookupDataset(nil, b.runID, rec.Dataset)
		if err != nil || info == nil {
			return nil, st, fmt.Errorf("dataset %q: %v", rec.Dataset, err)
		}
		size := info.GlobalSize * 8
		file := files[rec.FileName]
		if rec.FileOffset+size > int64(len(file)) {
			return nil, st, fmt.Errorf("slab %s@%d overruns %s", rec.Dataset, rec.Timestep, rec.FileName)
		}
		b.slabs = append(b.slabs, slab{
			key:  wire.WriteKey{Dataset: rec.Dataset, Timestep: rec.Timestep},
			rec:  wire.WriteRecord{RunID: rec.RunID, Dataset: rec.Dataset, Timestep: rec.Timestep, FileOffset: rec.FileOffset, FileName: rec.FileName},
			data: file[rec.FileOffset : rec.FileOffset+size],
		})
		for off := int64(0); off < size; off += sc.BlockSize {
			blocks = append(blocks, block{len(b.slabs) - 1, off, min(sc.BlockSize, size-off)})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 300))
	perm := rng.Perm(len(blocks)) // hot blocks scattered over the slabs
	b.streams = make([][]request, sc.ServeCallers)
	for c := range b.streams {
		crng := rand.New(rand.NewPCG(seed, uint64(400+c)))
		zipf := rand.NewZipf(crng, 1.1, 1, uint64(len(blocks)-1))
		reqs := make([]request, sc.ServeRequests)
		for i := range reqs {
			if crng.Float64() < sc.LookupShare {
				keys := make([]int, sc.LookupBatch)
				for j := range keys {
					keys[j] = crng.IntN(len(b.slabs))
				}
				reqs[i] = request{slab: -1, lookup: keys}
				continue
			}
			bl := blocks[perm[zipf.Uint64()]]
			reqs[i] = request{slab: bl.slab, off: bl.off, n: bl.n}
		}
		b.streams[c] = reqs
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, st, err
	}
	st.stage = slicing + time.Since(t)
	return b, st, nil
}

func (b *serveBench) opsPerRep() int { return b.sc.ServeCallers * b.sc.ServeRequests }

func (b *serveBench) config() map[string]any {
	return map[string]any{
		"nx": b.sc.ServeNX, "procs": b.sc.ServeProcs, "steps": b.sc.ServeSteps,
		"source_MB": float64(b.srcBytes) / 1e6, "slabs": len(b.slabs),
		"backend": "cas", "wal": "on; fsyncs issued", "bundle_dir": "inside the checkout (not tmpfs)",
		"cache_bytes": b.sc.CacheBytes, "block_bytes": b.sc.BlockSize,
		"callers": b.sc.ServeCallers, "loop": "closed", "requests_per_caller_per_rep": b.sc.ServeRequests,
		"read_bytes": b.sc.BlockSize, "read_skew": "zipf s=1.1",
		"lookup_share": b.sc.LookupShare, "lookup_batch": b.sc.LookupBatch,
	}
}

// callerOut is one caller's measurements.
type callerOut struct {
	reads, lookups []time.Duration
	bytes          int64
	failed         int
}

func (b *serveBench) rep(k *traceKit) (rr *repResult, err error) {
	dir := filepath.Join(b.workdir, fmt.Sprintf("bundle-%d", os.Getpid()))
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	var reg *obs.Registry
	var tr *obs.Tracer
	if k != nil {
		reg, tr = k.reg, k.tr
	}
	t := time.Now()
	if err := b.src.SaveBundleOpts(dir, sdm.BundleOptions{Backend: "cas", Metrics: reg}); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	save := time.Since(t)
	t = time.Now()
	served, err := sdm.OpenBundleOpts(dir, sdm.ClusterConfig{Procs: b.sc.ServeProcs}, sdm.BundleOptions{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	open := time.Since(t)
	served.SetMetrics(reg)

	srv := server.New(server.Config{CacheBytes: b.sc.CacheBytes, BlockSize: b.sc.BlockSize, Metrics: reg, Tracer: tr})
	if err := srv.Mount("bench", server.Source{Catalog: served.Catalog, FS: served.FS}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		cerr := hs.Close()
		if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		if cerr != nil && err == nil {
			err = cerr
		}
	}()
	base := "http://" + ln.Addr().String()

	outs := make([]callerOut, b.sc.ServeCallers)
	var wg sync.WaitGroup
	t = time.Now()
	for c := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tp := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tp.CloseIdleConnections()
			b.caller(sdmclient.New(base, sdmclient.WithHTTPClient(&http.Client{Transport: tp})), b.streams[c], &outs[c])
		}()
	}
	wg.Wait()
	loop := time.Since(t)

	rr = newRepResult()
	rr.TimedSec = loop.Seconds()
	rr.Attempted = b.opsPerRep()
	rr.addHost("bundle.save_ms", save)
	rr.addHost("bundle.open_ms", open)
	for _, o := range outs {
		for _, d := range o.reads {
			rr.Ops = append(rr.Ops, ms(d))
			rr.addHost("client.read_ms", d)
		}
		for _, d := range o.lookups {
			rr.Ops = append(rr.Ops, ms(d))
			rr.addHost("client.lookup_ms", d)
		}
		rr.Bytes += o.bytes
		rr.Failed += o.failed
	}
	if k != nil {
		snap := reg.Snapshot()
		cs := srv.CacheStats()
		onDisk, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		rr.Layer = append(catalogLayers(snap),
			metric{Name: "bundle.store.ops", Value: counter(snap, "bundle.store.ops"), Unit: "count"},
			metric{Name: "bundle.store.bytes_written", Value: counter(snap, "bundle.store.bytes-written"), Unit: "bytes"},
			metric{Name: "bundle.wal.records", Value: counter(snap, "bundle.wal.records"), Unit: "count"},
			metric{Name: "bundle.amplification", Value: ratio(float64(onDisk), float64(b.srcBytes)), Unit: "ratio",
				Note: "bundle bytes on disk per simulated file byte"},
			metric{Name: "server.cache.hit_ratio", Value: ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses+cs.Waits)), Unit: "ratio"},
			metric{Name: "server.cache.misses", Value: float64(cs.Misses), Unit: "count"},
			metric{Name: "server.cache.waits", Value: float64(cs.Waits), Unit: "count"},
			metric{Name: "server.cache.evictions", Value: float64(cs.Evictions), Unit: "count"},
			metric{Name: "server.requests", Value: counter(snap, "server.requests"), Unit: "count"},
			metric{Name: "server.errors", Value: counter(snap, "server.errors"), Unit: "count"},
			metric{Name: "server.bytes_served", Value: counter(snap, "server.bytes-served"), Unit: "bytes"},
		)
		rr.Spans = k.tr.SpanCount()
	}
	return rr, nil
}

// caller runs one closed-loop client: each request is sent after the
// previous reply, timed from send to the last body byte, and checked
// against the source run outside the timed interval.
func (b *serveBench) caller(c *sdmclient.Client, reqs []request, out *callerOut) {
	keys := make([]wire.WriteKey, b.sc.LookupBatch)
	for _, q := range reqs {
		if q.slab < 0 {
			for i, s := range q.lookup {
				keys[i] = b.slabs[s].key
			}
			t := time.Now()
			recs, err := c.Lookup(b.runID, keys[:len(q.lookup)])
			out.lookups = append(out.lookups, time.Since(t))
			ok := err == nil && len(recs) == len(q.lookup)
			for i := 0; ok && i < len(recs); i++ {
				ok = recs[i] != nil && *recs[i] == b.slabs[q.lookup[i]].rec
			}
			if !ok {
				out.failed++
			}
			continue
		}
		s := &b.slabs[q.slab]
		t := time.Now()
		body, err := c.ReadRange(b.runID, s.key.Dataset, s.key.Timestep, q.off, q.n)
		out.reads = append(out.reads, time.Since(t))
		if err != nil || !bytes.Equal(body, s.data[q.off:q.off+q.n]) {
			out.failed++
			continue
		}
		out.bytes += int64(len(body))
	}
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
