package server

import (
	"fmt"
	"io"
	"time"

	"sdm/internal/catalog"
	"sdm/internal/pfs"
	"sdm/internal/wire"
)

// Source is one bundle's metadata catalog (resolving names to
// placements) and file system (holding the bytes), read in wire types.
// It is the one catalog→wire adapter: the daemon's handlers serve
// through it, and a local tool reads a bundle through it with the same
// method set as *sdmclient.Client, so local and remote answers agree
// by construction — rows, ordering, and not-found errors
// (wire.ErrNotFound) alike. Reads use nil clocks (no simulated rank
// clock is charged) and take bytes from the store backend beneath the
// pfs; both paths are safe for concurrent readers.
type Source struct {
	Catalog *catalog.Catalog
	FS      *pfs.System // needed only by reads
}

// run fetches one run row, failing with wire.ErrNotFound when absent.
func (s Source) run(runID int64) (wire.Run, error) {
	r, err := s.Catalog.LookupRun(nil, runID)
	if err != nil {
		return wire.Run{}, err
	}
	if r == nil {
		return wire.Run{}, errNotFound("run %d not found", runID)
	}
	return toWireRun(*r), nil
}

// Runs lists every run, in run-id order.
func (s Source) Runs() ([]wire.Run, error) {
	runs, err := s.Catalog.Runs(nil)
	return convert(runs, err, toWireRun)
}

// Datasets lists a run's registered datasets.
func (s Source) Datasets(run int64) ([]wire.Dataset, error) {
	if _, err := s.run(run); err != nil {
		return nil, err
	}
	infos, err := s.Catalog.Datasets(nil, run)
	return convert(infos, err, toWireDataset)
}

// Writes lists a run's execution-table rows.
func (s Source) Writes(run int64) ([]wire.WriteRecord, error) {
	if _, err := s.run(run); err != nil {
		return nil, err
	}
	recs, err := s.Catalog.WritesForRun(nil, run)
	return convert(recs, err, toWireWrite)
}

// Imports lists a run's import-table rows.
func (s Source) Imports(run int64) ([]wire.ImportEntry, error) {
	if _, err := s.run(run); err != nil {
		return nil, err
	}
	imps, err := s.Catalog.Imports(nil, run)
	return convert(imps, err, func(e catalog.ImportEntry) wire.ImportEntry {
		return wire.ImportEntry{
			RunID:        e.RunID,
			ImportedName: e.ImportedName,
			FileName:     e.FileName,
			DataType:     e.DataType,
			StorageOrder: e.StorageOrder,
			Partition:    e.Partition,
			FileContent:  e.FileContent,
			FileOffset:   e.FileOffset,
			Length:       e.Length,
		}
	})
}

// Histories lists the index-distribution histories.
func (s Source) Histories() ([]wire.IndexHistory, error) {
	hists, err := s.Catalog.Histories(nil)
	return convert(hists, err, func(h catalog.IndexHistory) wire.IndexHistory {
		return wire.IndexHistory{
			ProblemSize: h.ProblemSize,
			NumNodes:    h.NumNodes,
			NProcs:      h.NProcs,
			Dimension:   h.Dimension,
			FileName:    h.FileName,
		}
	})
}

// Lookup resolves a batch of (dataset, timestep) keys in one catalog
// call; a key with no recorded write yields a nil entry.
func (s Source) Lookup(run int64, keys []wire.WriteKey) ([]*wire.WriteRecord, error) {
	if _, err := s.run(run); err != nil {
		return nil, err
	}
	ck := make([]catalog.WriteKey, len(keys))
	for i, k := range keys {
		ck[i] = catalog.WriteKey{Dataset: k.Dataset, Timestep: k.Timestep}
	}
	recs, err := s.Catalog.LookupWrites(nil, run, ck)
	if err != nil {
		return nil, err
	}
	out := make([]*wire.WriteRecord, len(recs))
	for i, rec := range recs {
		if rec != nil {
			wr := toWireWrite(*rec)
			out[i] = &wr
		}
	}
	return out, nil
}

// ReadDataset reads a full slab: every byte of the dataset's global
// array at the given timestep, resolved exactly as the daemon's read
// handler resolves it.
func (s Source) ReadDataset(run int64, dataset string, timestep int64) ([]byte, error) {
	info, rec, err := s.slab(run, dataset, timestep)
	if err != nil {
		return nil, err
	}
	obj, err := s.FS.Backend().Open(rec.FileName)
	if err != nil {
		return nil, fmt.Errorf("opening %q: %w", rec.FileName, err)
	}
	full := info.GlobalSize * wire.DataTypeSize(info.DataType)
	if size := obj.Size(); rec.FileOffset+full > size {
		return nil, errSlabRange(rec, size, full)
	}
	buf := make([]byte, full)
	if n, err := obj.ReadAt(buf, rec.FileOffset); err != nil && !(err == io.EOF && int64(n) == full) {
		return nil, fmt.Errorf("reading %s@%d: %w", rec.FileName, rec.FileOffset, err)
	}
	return buf, nil
}

// slab resolves a (run, dataset, timestep) read: the dataset's shape
// from access_pattern_table and the write's placement from
// execution_table, each failing with wire.ErrNotFound when absent.
func (s Source) slab(run int64, dataset string, timestep int64) (*catalog.DatasetInfo, *catalog.WriteRecord, error) {
	info, err := s.Catalog.LookupDataset(nil, run, dataset)
	if err != nil {
		return nil, nil, err
	}
	if info == nil {
		if _, err := s.run(run); err != nil {
			return nil, nil, err
		}
		return nil, nil, errNotFound("dataset %q not registered for run %d", dataset, run)
	}
	rec, err := s.Catalog.LookupWrite(nil, run, dataset, timestep)
	if err != nil {
		return nil, nil, err
	}
	if rec == nil {
		return nil, nil, errNotFound("no write recorded for run %d dataset %q timestep %d", run, dataset, timestep)
	}
	return info, rec, nil
}

// errSlabRange reports a file too short for the slab its record places.
func errSlabRange(rec *catalog.WriteRecord, size, full int64) error {
	return errRange("file %q holds %d bytes, slab needs [%d,%d)",
		rec.FileName, size, rec.FileOffset, rec.FileOffset+full)
}

// convert maps catalog rows to wire rows, passing a query error through.
func convert[C, W any](rows []C, err error, to func(C) W) ([]W, error) {
	if err != nil {
		return nil, err
	}
	out := make([]W, len(rows))
	for i, r := range rows {
		out[i] = to(r)
	}
	return out, nil
}

func toWireRun(r catalog.Run) wire.Run {
	return wire.Run{
		RunID:       r.RunID,
		Application: r.Application,
		Dimension:   r.Dimension,
		ProblemSize: r.ProblemSize,
		Timesteps:   r.Timesteps,
		Stamp:       r.Stamp.Format(time.RFC3339),
	}
}

func toWireDataset(d catalog.DatasetInfo) wire.Dataset {
	return wire.Dataset{
		RunID:         d.RunID,
		Dataset:       d.Dataset,
		AccessPattern: d.AccessPattern,
		DataType:      d.DataType,
		StorageOrder:  d.StorageOrder,
		GlobalSize:    d.GlobalSize,
	}
}

func toWireWrite(r catalog.WriteRecord) wire.WriteRecord {
	return wire.WriteRecord{
		RunID:      r.RunID,
		Dataset:    r.Dataset,
		Timestep:   r.Timestep,
		FileOffset: r.FileOffset,
		FileName:   r.FileName,
	}
}
