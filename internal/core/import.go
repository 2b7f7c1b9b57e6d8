package core

import (
	"fmt"

	"sdm/internal/catalog"
	"sdm/internal/mpiio"
	"sdm/internal/pfs"
)

// ImportSpec describes one array inside an externally created file
// (data "created outside of SDM" that the application can only read by
// supplying type, offset, and length — the paper's import concept).
type ImportSpec struct {
	Name       string
	Type       DataType
	FileOffset int64
	Length     int64 // elements
	// Content tags the array as "INDEX" (edge arrays) or "DATA"
	// (physical values); stored in import_table.
	Content string
}

// Importer is an active import list bound to one external file
// (SDM_make_importlist). Its lifetime ends with Release.
type Importer struct {
	s        *SDM
	fileName string
	specs    map[string]ImportSpec
	file     *mpiio.File
	released bool
	// fileOrder is ImportView's reusable file-order buffer for views
	// that permute.
	fileOrder []byte
}

// MakeImportlist registers the arrays of an external file in
// import_table and opens the file collectively.
func (s *SDM) MakeImportlist(fileName string, specs []ImportSpec) (*Importer, error) {
	imp := &Importer{s: s, fileName: fileName, specs: make(map[string]ImportSpec)}
	for _, sp := range specs {
		if sp.Length <= 0 {
			return nil, fmt.Errorf("core: import %q has non-positive length %d", sp.Name, sp.Length)
		}
		if _, dup := imp.specs[sp.Name]; dup {
			return nil, fmt.Errorf("core: duplicate import name %q", sp.Name)
		}
		if sp.Content == "" {
			sp.Content = "DATA"
		}
		imp.specs[sp.Name] = sp
	}
	err := s.catalogCall(func() error {
		for _, sp := range specs {
			e := catalog.ImportEntry{
				RunID:        s.runID,
				ImportedName: sp.Name,
				FileName:     fileName,
				DataType:     imp.specs[sp.Name].Type.String(),
				StorageOrder: "ROW_MAJOR",
				Partition:    "DISTRIBUTED",
				FileContent:  imp.specs[sp.Name].Content,
				FileOffset:   sp.FileOffset,
				Length:       sp.Length,
			}
			if err := s.env.Catalog.RegisterImport(s.env.Comm.Clock(), e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := mpiio.Open(s.env.Comm, s.env.FS, fileName, pfs.ReadOnly, s.opts.Hints)
	if err != nil {
		return nil, err
	}
	imp.file = f
	s.importers = append(s.importers, imp)
	return imp, nil
}

// Spec returns a registered import spec.
func (imp *Importer) Spec(name string) (ImportSpec, error) {
	sp, ok := imp.specs[name]
	if !ok {
		return ImportSpec{}, fmt.Errorf("core: no import named %q", name)
	}
	return sp, nil
}

// blockRange computes the equal division of n elements among p ranks:
// rank r imports [start, start+count). The paper: "the total domain
// (file length) is equally divided among processes, and the data in the
// domain is contiguously imported".
func blockRange(n int64, p, r int) (start, count int64) {
	per := n / int64(p)
	rem := n % int64(p)
	start = int64(r)*per + min64(int64(r), rem)
	count = per
	if int64(r) < rem {
		count++
	}
	return start, count
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ImportContiguous imports this rank's equal-division block of a
// registered array (SDM_import for index arrays: "edges 0 and 1 are
// imported to process 0, and edges 2 and 3 to process 1"). Collective.
// The returned buffer holds count elements starting at element start.
func (imp *Importer) ImportContiguous(name string) (buf []byte, start, count int64, err error) {
	if imp.released {
		return nil, 0, 0, fmt.Errorf("core: import list already released")
	}
	sp, err := imp.Spec(name)
	if err != nil {
		return nil, 0, 0, err
	}
	c := imp.s.env.Comm
	start, count = blockRange(sp.Length, c.Size(), c.Rank())
	es := sp.Type.Size()
	imp.file.SetView(sp.FileOffset, nil)
	buf = make([]byte, count*es)
	if err := imp.file.ReadAtAll(start*es, buf); err != nil {
		return nil, 0, 0, err
	}
	return buf, start, count, nil
}

// ImportView imports a registered array through an irregular view: each
// rank receives the elements its map array names, in map-array order
// (SDM_import for data arrays x and y after SDM_data_view). Collective.
func (imp *Importer) ImportView(name string, v *View) ([]byte, error) {
	if imp.released {
		return nil, fmt.Errorf("core: import list already released")
	}
	sp, err := imp.Spec(name)
	if err != nil {
		return nil, err
	}
	if v.elemSize != sp.Type.Size() {
		return nil, fmt.Errorf("core: view element size %d does not match import %q type %s",
			v.elemSize, name, sp.Type)
	}
	if v.globalN != sp.Length {
		return nil, fmt.Errorf("core: view global size %d does not match import %q length %d",
			v.globalN, name, sp.Length)
	}
	imp.file.SetView(sp.FileOffset, v.dtype)
	out := make([]byte, int64(v.LocalSize())*v.elemSize)
	if v.identity {
		// File order is map-array order: read straight into the result.
		if err := imp.file.ReadAtAll(0, out); err != nil {
			return nil, err
		}
	} else {
		if cap(imp.fileOrder) < len(out) {
			imp.fileOrder = make([]byte, len(out))
		}
		fileOrder := imp.fileOrder[:len(out)]
		if err := imp.file.ReadAtAll(0, fileOrder); err != nil {
			return nil, err
		}
		permuteBytesFromFile(v, fileOrder, out)
	}
	imp.s.env.Comm.ComputeItems(int64(len(out)), imp.s.opts.MemCopyRate)
	return out, nil
}

// ImportViewFloat64s is ImportView decoded to float64.
func (imp *Importer) ImportViewFloat64s(name string, v *View) ([]float64, error) {
	buf, err := imp.ImportView(name, v)
	if err != nil {
		return nil, err
	}
	return bytesToFloat64s(buf), nil
}

// Release frees the import structures and clears import_table rows
// (SDM_release_importlist). Collective.
func (imp *Importer) Release() error {
	if imp.released {
		return nil
	}
	imp.released = true
	imp.fileOrder = nil
	if err := imp.file.Close(); err != nil {
		return err
	}
	return imp.s.catalogCall(func() error {
		return imp.s.env.Catalog.ReleaseImports(imp.s.env.Comm.Clock(), imp.s.runID)
	})
}
