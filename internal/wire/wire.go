// Package wire defines the JSON types of sdmd's HTTP protocol — the
// contract between internal/server (the daemon) and sdmclient (the
// SDK). The protocol is deliberately plain: JSON for metadata,
// application/octet-stream for dataset bytes, standard HTTP status
// codes for errors (404 for unknown runs/datasets/timesteps/sessions,
// 400 for malformed requests, 416 for out-of-range reads), so a
// dataset is one curl away.
//
// Endpoints (all under /v1):
//
//	GET    /v1/ping                                liveness + mounted bundles
//	GET    /v1/runs                                run_table
//	GET    /v1/runs/{run}/datasets                 access_pattern_table
//	GET    /v1/runs/{run}/writes                   execution_table
//	GET    /v1/runs/{run}/imports                  import_table
//	GET    /v1/histories                           index_table
//	POST   /v1/runs/{run}/lookup                   batched LookupWrites
//	POST   /v1/sessions                            attach to a run
//	GET    /v1/sessions/{id}                       session keepalive/info
//	DELETE /v1/sessions/{id}                       detach
//	GET    /v1/read/{run}/{dataset}/{timestep}     dataset bytes (?off=&len=)
//	GET    /v1/cache                               block-cache statistics
//	GET    /v1/metrics                             metrics registry dump (text)
//
// Multi-bundle daemons qualify requests with ?bundle=NAME; the first
// mounted bundle is the default.
package wire

import (
	"errors"
	"time"
)

// SessionHeader carries a session id on read requests, scoping the
// read to an attached run and refreshing the session's idle deadline.
const SessionHeader = "X-Sdm-Session"

// Error is the JSON body of every non-2xx response.
type Error struct {
	Code    string `json:"code"` // "not_found", "bad_request", "range", "internal"
	Message string `json:"message"`
}

// Error codes.
const (
	CodeNotFound   = "not_found"
	CodeBadRequest = "bad_request"
	CodeRange      = "range"
	CodeInternal   = "internal"
)

// Sentinel errors for the not-found, bad-request, and range classes,
// matched with errors.Is. The daemon's errors unwrap to them (also when
// a local tool reads a bundle through server.Source directly), and
// sdmclient maps the matching HTTP statuses back onto them, so a
// caller tells the classes apart identically on both paths.
var (
	ErrNotFound   = errors.New("not found")
	ErrBadRequest = errors.New("bad request")
	ErrRange      = errors.New("range not satisfiable")
)

// Ping is the liveness response: the daemon is up and serving these
// bundles (mount order; the first is the default for unqualified
// requests).
type Ping struct {
	OK      bool     `json:"ok"`
	Bundles []string `json:"bundles"`
}

// Run mirrors catalog.Run (one run_table row).
type Run struct {
	RunID       int64  `json:"runid"`
	Application string `json:"application"`
	Dimension   int64  `json:"dimension"`
	ProblemSize int64  `json:"problem_size"`
	Timesteps   int64  `json:"num_timesteps"`
	Stamp       string `json:"stamp"` // RFC 3339
}

// ShortStamp renders Stamp for display as "2006-01-02 15:04" in the
// stamp's own zone, or verbatim when it does not parse.
func (r Run) ShortStamp() string {
	t, err := time.Parse(time.RFC3339, r.Stamp)
	if err != nil {
		return r.Stamp
	}
	return t.Format("2006-01-02 15:04")
}

// Dataset mirrors catalog.DatasetInfo (one access_pattern_table row).
type Dataset struct {
	RunID         int64  `json:"runid"`
	Dataset       string `json:"dataset"`
	AccessPattern string `json:"access_pattern"`
	DataType      string `json:"data_type"`
	StorageOrder  string `json:"storage_order"`
	GlobalSize    int64  `json:"global_size"`
}

// ElemSize reports the dataset's element width in bytes.
func (d Dataset) ElemSize() int64 { return DataTypeSize(d.DataType) }

// DataTypeSize maps a catalog data-type name to its element width.
func DataTypeSize(dataType string) int64 {
	if dataType == "INTEGER" {
		return 4
	}
	return 8 // DOUBLE, LONG
}

// WriteRecord mirrors catalog.WriteRecord (one execution_table row).
type WriteRecord struct {
	RunID      int64  `json:"runid"`
	Dataset    string `json:"dataset"`
	Timestep   int64  `json:"timestep"`
	FileOffset int64  `json:"file_offset"`
	FileName   string `json:"file_name"`
}

// WriteKey names one (dataset, timestep) slab in a batched lookup.
type WriteKey struct {
	Dataset  string `json:"dataset"`
	Timestep int64  `json:"timestep"`
}

// LookupRequest asks the server to resolve a batch of slabs in one
// round trip (the server issues a single batched catalog.LookupWrites).
type LookupRequest struct {
	Keys []WriteKey `json:"keys"`
}

// LookupResponse carries the resolved placements, in key order;
// missing entries are null slots, matching catalog.LookupWrites.
type LookupResponse struct {
	Records []*WriteRecord `json:"records"`
}

// ImportEntry mirrors catalog.ImportEntry (one import_table row).
type ImportEntry struct {
	RunID        int64  `json:"runid"`
	ImportedName string `json:"imported_name"`
	FileName     string `json:"file_name"`
	DataType     string `json:"data_type"`
	StorageOrder string `json:"storage_order"`
	Partition    string `json:"partition"`
	FileContent  string `json:"file_content"`
	FileOffset   int64  `json:"file_offset"`
	Length       int64  `json:"length"`
}

// IndexHistory mirrors the index_table half of catalog.IndexHistory.
type IndexHistory struct {
	ProblemSize int64  `json:"problem_size"`
	NumNodes    int64  `json:"num_nodes"`
	NProcs      int64  `json:"nprocs"`
	Dimension   int64  `json:"dimension"`
	FileName    string `json:"registered_file_name"`
}

// AttachRequest opens a session on a run (the network form of
// Options.AttachRun).
type AttachRequest struct {
	Bundle string `json:"bundle,omitempty"`
	Run    int64  `json:"run"` // 0 = the bundle's latest run
}

// AttachResponse carries the new session plus everything a client
// needs to start reading: the run row and its registered datasets,
// resolved server-side so attaching costs one round trip.
type AttachResponse struct {
	Session  string    `json:"session"`
	Bundle   string    `json:"bundle"`
	Run      Run       `json:"run"`
	Datasets []Dataset `json:"datasets"`
}

// SessionInfo reports one live session (GET /v1/sessions/{id}).
type SessionInfo struct {
	Session string `json:"session"`
	Bundle  string `json:"bundle"`
	Run     int64  `json:"run"`
	IdleMS  int64  `json:"idle_ms"`
}

// CacheStats reports the read-through block cache's state
// (GET /v1/cache). HitRatio is hits over all lookups — waits (requests
// coalesced onto another request's in-flight fetch) count as neither
// hits nor misses in the numerator but do appear in the denominator.
type CacheStats struct {
	BlockSize int64   `json:"block_size"`
	Capacity  int64   `json:"capacity"`
	Bytes     int64   `json:"bytes"`
	Blocks    int64   `json:"blocks"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Waits     int64   `json:"waits"`
	Evictions int64   `json:"evictions"`
	HitRatio  float64 `json:"hit_ratio"`
}
