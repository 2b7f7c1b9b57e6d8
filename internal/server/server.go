// Package server implements sdmd, the network-attached face of SDM:
// an HTTP daemon that owns one or more opened run bundles (metadata
// catalog + store-backed file bytes) and serves them to many
// concurrent clients. The paper's SDM is a single-process library
// where a "second user" is a second process opening the bundle
// directory; sdmd turns that into a service — session-scoped
// AttachRun, dataset/timestep listing backed by server-side batched
// LookupWrites, and streamed ranged dataset reads through a bounded
// read-through block cache (LRU over file blocks, singleflight on
// miss), so N readers of a hot timestep cost one backend read, not N.
//
// Layering (in the style of datamon's httpd/web/sdk split): this
// package is the daemon core over internal/catalog + internal/pfs;
// internal/wire defines the protocol types; sdmclient is the thin SDK;
// cmd/sdmd is the process wrapper. The server only ever reads its
// sources — bundles are quiescent while mounted — which is what makes
// lock-free sharing of cached blocks sound.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sdm/internal/obs"
	"sdm/internal/sim"
	"sdm/internal/store"
	"sdm/internal/wire"
)

// mount wraps a Source with the server's per-bundle state: a cache of
// opened store objects so block fetches don't re-open the backing
// object per block.
type mount struct {
	name string
	src  Source

	mu   sync.RWMutex
	objs map[string]store.Object
}

// object returns the store object behind a simulated file, opening and
// caching it on first touch, along with its size. The hit path takes
// only a read lock, so concurrent readers of mounted bundles don't
// serialize here; the open-and-insert path double-checks under the
// write lock.
func (m *mount) object(name string) (store.Object, int64, error) {
	m.mu.RLock()
	obj, ok := m.objs[name]
	m.mu.RUnlock()
	if ok {
		return obj, obj.Size(), nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if obj, ok := m.objs[name]; ok {
		return obj, obj.Size(), nil
	}
	obj, err := m.src.FS.Backend().Open(name)
	if err != nil {
		return nil, 0, err
	}
	m.objs[name] = obj
	return obj, obj.Size(), nil
}

// Config tunes a Server.
type Config struct {
	// CacheBytes bounds the block cache (default DefaultCacheBytes).
	CacheBytes int64
	// BlockSize is the cache granularity (default DefaultBlockSize).
	BlockSize int64
	// IdleTimeout reaps sessions untouched for this long (default
	// DefaultIdleTimeout).
	IdleTimeout time.Duration
	// Metrics, when non-nil, receives the server's counters and gauges
	// under "server.*" and is dumped by GET /v1/metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per request on the
	// obs.PidSDMD track. sdmd spans carry host time (ns since the
	// server started), not simulated time.
	Tracer *obs.Tracer
}

// Server is the sdmd daemon core. It implements http.Handler; wrap it
// in an http.Server (or httptest.Server) to serve. All methods are
// safe for concurrent use.
type Server struct {
	mu     sync.RWMutex
	mounts map[string]*mount
	order  []string // mount order; order[0] is the default bundle

	cache    *BlockCache
	sessions *sessionTable
	mux      *http.ServeMux

	metrics *obs.Registry
	tracer  *obs.Tracer
	started time.Time

	requests, errcount *obs.Counter
	bytesServed        *obs.Counter
	reads              *obs.Counter
	lookups            *obs.Counter
	latency            *obs.Histogram
}

// New builds a Server; mount bundles with Mount before serving.
func New(cfg Config) *Server {
	s := &Server{
		mounts:   make(map[string]*mount),
		cache:    NewBlockCache(cfg.BlockSize, cfg.CacheBytes),
		sessions: newSessionTable(cfg.IdleTimeout),
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		started:  time.Now(),
	}
	if r := cfg.Metrics; r != nil {
		s.requests = r.Counter("server.requests")
		s.errcount = r.Counter("server.errors")
		s.bytesServed = r.Counter("server.bytes-served")
		s.reads = r.Counter("server.reads")
		s.lookups = r.Counter("server.lookup-keys")
		s.latency = r.Histogram("server.request-ns")
		s.cache.RegisterMetrics(r)
		s.sessions.registerMetrics(r)
	}
	if s.tracer != nil {
		s.tracer.NameProcess(obs.PidSDMD, "sdmd")
	}
	s.routes()
	return s
}

// Mount attaches a bundle's source under a name. The first mount is
// the default bundle for requests without ?bundle=. Mount before
// serving; mounting a name twice is an error.
func (s *Server) Mount(name string, src Source) error {
	if name == "" {
		return errors.New("server: mount name must be non-empty")
	}
	if src.Catalog == nil || src.FS == nil {
		return errors.New("server: mount needs a catalog and a file system")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.mounts[name]; dup {
		return fmt.Errorf("server: bundle %q already mounted", name)
	}
	s.mounts[name] = &mount{name: name, src: src, objs: make(map[string]store.Object)}
	s.order = append(s.order, name)
	return nil
}

// Bundles reports the mounted bundle names in mount order.
func (s *Server) Bundles() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// CacheStats snapshots the block cache.
func (s *Server) CacheStats() wire.CacheStats { return s.cache.Stats() }

// ActiveSessions reports the number of live sessions.
func (s *Server) ActiveSessions() int { return s.sessions.active() }

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", s.handlePing)
	mux.HandleFunc("GET /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/runs/{run}/datasets", s.handleDatasets)
	mux.HandleFunc("GET /v1/runs/{run}/writes", s.handleWrites)
	mux.HandleFunc("GET /v1/runs/{run}/imports", s.handleImports)
	mux.HandleFunc("GET /v1/histories", s.handleHistories)
	mux.HandleFunc("POST /v1/runs/{run}/lookup", s.handleLookup)
	mux.HandleFunc("POST /v1/sessions", s.handleAttach)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDetach)
	mux.HandleFunc("GET /v1/read/{run}/{dataset}/{timestep}", s.handleRead)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux = mux
}

// statusWriter remembers the status code for metrics and tracing.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP dispatches a request with per-request instrumentation: a
// request counter, an error counter, a latency histogram, and — when a
// tracer is installed — one span per request on the sdmd track.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	elapsed := time.Since(t0)
	s.requests.Add(1)
	if sw.code >= 400 {
		s.errcount.Add(1)
	}
	s.latency.Observe(sim.Duration(elapsed))
	if s.tracer != nil {
		start := sim.Time(t0.Sub(s.started))
		s.tracer.Emit(obs.PidSDMD, "sdmd", r.Method+" "+r.URL.Path,
			start, start+sim.Time(elapsed),
			obs.KV{Key: "status", Val: strconv.Itoa(sw.code)})
	}
}

// httpError is a status-coded error on its way to the wire. It
// unwraps to the wire sentinel of its class and reads "<class>:
// <message>", so a local Source caller sees exactly the error an
// sdmclient caller gets from the daemon's reply.
type httpError struct {
	status int
	code   string
	class  error // nil for internal errors
	msg    string
}

func (e *httpError) Error() string {
	if e.class == nil {
		return e.msg
	}
	return e.class.Error() + ": " + e.msg
}

func (e *httpError) Unwrap() error { return e.class }

func errNotFound(format string, args ...any) *httpError {
	return &httpError{http.StatusNotFound, wire.CodeNotFound, wire.ErrNotFound, fmt.Sprintf(format, args...)}
}

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{http.StatusBadRequest, wire.CodeBadRequest, wire.ErrBadRequest, fmt.Sprintf(format, args...)}
}

func errRange(format string, args ...any) *httpError {
	return &httpError{http.StatusRequestedRangeNotSatisfiable, wire.CodeRange, wire.ErrRange, fmt.Sprintf(format, args...)}
}

// fail writes the error envelope, mapping untyped errors to 500.
func fail(w http.ResponseWriter, err error) {
	he, ok := err.(*httpError)
	if !ok {
		he = &httpError{http.StatusInternalServerError, wire.CodeInternal, nil, err.Error()}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(he.status)
	_ = json.NewEncoder(w).Encode(wire.Error{Code: he.code, Message: he.msg})
}

// reply writes a JSON response.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// answer returns a sink that replies with a result, or fails with its
// error: answer(w)(m.src.Runs()).
func answer(w http.ResponseWriter) func(any, error) {
	return func(v any, err error) {
		if err != nil {
			fail(w, err)
			return
		}
		reply(w, v)
	}
}

// bundleFor resolves the request's ?bundle= (default: first mount).
func (s *Server) bundleFor(r *http.Request) (*mount, error) {
	name := r.URL.Query().Get("bundle")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 0 {
			return nil, errNotFound("no bundles mounted")
		}
		return s.mounts[s.order[0]], nil
	}
	m, ok := s.mounts[name]
	if !ok {
		return nil, errNotFound("bundle %q not mounted", name)
	}
	return m, nil
}

// runFor resolves a per-run request's bundle and {run} path value.
func (s *Server) runFor(r *http.Request) (*mount, int64, error) {
	m, err := s.bundleFor(r)
	if err != nil {
		return nil, 0, err
	}
	run, err := pathInt64(r, "run")
	return m, run, err
}

// pathInt64 parses a {name} path value as an integer.
func pathInt64(r *http.Request, name string) (int64, error) {
	v, err := strconv.ParseInt(r.PathValue(name), 10, 64)
	if err != nil {
		return 0, errBadRequest("bad %s %q", name, r.PathValue(name))
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Metadata handlers
// ---------------------------------------------------------------------------

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	reply(w, wire.Ping{OK: true, Bundles: s.Bundles()})
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	m, err := s.bundleFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	answer(w)(m.src.Runs())
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	m, run, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	answer(w)(m.src.Datasets(run))
}

func (s *Server) handleWrites(w http.ResponseWriter, r *http.Request) {
	m, run, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	answer(w)(m.src.Writes(run))
}

func (s *Server) handleImports(w http.ResponseWriter, r *http.Request) {
	m, run, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	answer(w)(m.src.Imports(run))
}

func (s *Server) handleHistories(w http.ResponseWriter, r *http.Request) {
	m, err := s.bundleFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	answer(w)(m.src.Histories())
}

// handleLookup is the server-side batched LookupWrites: the whole key
// batch resolves in one catalog call, one round trip, one JSON body.
func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	m, run, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	var req wire.LookupRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		fail(w, errBadRequest("bad lookup body: %v", err))
		return
	}
	recs, err := m.src.Lookup(run, req.Keys)
	if err != nil {
		fail(w, err)
		return
	}
	s.lookups.Add(int64(len(req.Keys)))
	reply(w, wire.LookupResponse{Records: recs})
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var req wire.AttachRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		fail(w, errBadRequest("bad attach body: %v", err))
		return
	}
	// The body's bundle field wins over ?bundle= (they should agree).
	if req.Bundle != "" {
		q := r.URL.Query()
		q.Set("bundle", req.Bundle)
		r.URL.RawQuery = q.Encode()
	}
	m, err := s.bundleFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	runID := req.Run
	if runID == 0 {
		runs, err := m.src.Runs()
		if err != nil {
			fail(w, err)
			return
		}
		if len(runs) == 0 {
			fail(w, errNotFound("bundle %q has no runs", m.name))
			return
		}
		runID = runs[len(runs)-1].RunID
	}
	run, err := m.src.run(runID)
	if err != nil {
		fail(w, err)
		return
	}
	datasets, err := m.src.Datasets(runID)
	if err != nil {
		fail(w, err)
		return
	}
	sess, err := s.sessions.attach(m.name, runID)
	if err != nil {
		fail(w, err)
		return
	}
	reply(w, wire.AttachResponse{Session: sess.id, Bundle: m.name, Run: run, Datasets: datasets})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, idle, err := s.sessions.touch(r.PathValue("id"))
	if err != nil {
		fail(w, errNotFound("%v", err))
		return
	}
	reply(w, wire.SessionInfo{Session: sess.id, Bundle: sess.bundle, Run: sess.run, IdleMS: idle.Milliseconds()})
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.detach(r.PathValue("id")); err != nil {
		fail(w, errNotFound("%v", err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

// handleRead streams a dataset slab (or a ranged piece of it) through
// the block cache. The slab is resolved exactly as local sdmcat does —
// access_pattern_table for shape, execution_table for placement — so
// remote bytes are pinned identical to a local bundle read.
func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	m, runID, err := s.runFor(r)
	if err != nil {
		fail(w, err)
		return
	}
	ts, err := pathInt64(r, "timestep")
	if err != nil {
		fail(w, err)
		return
	}
	dataset := r.PathValue("dataset")

	// A session header scopes the read: it must be live, and it must
	// match the (bundle, run) being read.
	if id := r.Header.Get(wire.SessionHeader); id != "" {
		sess, _, err := s.sessions.touch(id)
		if err != nil {
			fail(w, errNotFound("%v", err))
			return
		}
		if sess.bundle != m.name || sess.run != runID {
			fail(w, errBadRequest("session %s is attached to bundle %q run %d, not bundle %q run %d",
				id, sess.bundle, sess.run, m.name, runID))
			return
		}
	}

	info, rec, err := m.src.slab(runID, dataset, ts)
	if err != nil {
		fail(w, err)
		return
	}

	full := info.GlobalSize * wire.DataTypeSize(info.DataType)
	off, n := int64(0), full
	q := r.URL.Query()
	if v := q.Get("off"); v != "" {
		if off, err = strconv.ParseInt(v, 10, 64); err != nil {
			fail(w, errBadRequest("bad off %q", v))
			return
		}
	}
	if v := q.Get("len"); v != "" {
		if n, err = strconv.ParseInt(v, 10, 64); err != nil {
			fail(w, errBadRequest("bad len %q", v))
			return
		}
	} else {
		n = full - off
	}
	// Checked as off > full, n > full-off — never off+n, which a
	// crafted query (both near 2^62) wraps negative to slip past.
	if off < 0 || n < 0 || off > full || n > full-off {
		fail(w, errRange("range off=%d len=%d outside dataset %q of %d bytes", off, n, dataset, full))
		return
	}

	obj, size, err := m.object(rec.FileName)
	if err != nil {
		fail(w, fmt.Errorf("opening %q: %w", rec.FileName, err))
		return
	}
	if rec.FileOffset+full > size {
		fail(w, errSlabRange(rec, size, full))
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("X-Sdm-Data-Type", info.DataType)
	w.Header().Set("X-Sdm-Global-Size", strconv.FormatInt(info.GlobalSize, 10))
	s.reads.Add(1)

	// Cache keys are bundle-qualified file names; fetches read the
	// store object directly (the store contract zero-fills holes, as
	// the pfs read path does, so bytes match a local read exactly).
	cacheFile := m.name + "\x00" + rec.FileName
	fetch := func(fo, fn int64) ([]byte, error) {
		buf := make([]byte, fn)
		got, err := obj.ReadAt(buf, fo)
		if err == io.EOF && int64(got) == fn {
			err = nil
		}
		if err != nil {
			return nil, err
		}
		return buf, nil
	}
	written, err := s.cache.WriteRange(w, cacheFile, size, rec.FileOffset+off, n, fetch)
	s.bytesServed.Add(written)
	if err != nil && written == 0 {
		// Nothing hit the wire yet, so the header block is still
		// mutable: clear the dataset-sized Content-Length before fail
		// writes its JSON envelope against it.
		w.Header().Del("Content-Length")
		fail(w, err)
	}
	// A mid-stream error can only tear the connection; the client sees
	// a short body against the Content-Length and fails loudly.
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	reply(w, s.cache.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.metrics == nil {
		fail(w, errNotFound("metrics collection is disabled (start sdmd with metrics enabled)"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.metrics.Dump(w)
}
