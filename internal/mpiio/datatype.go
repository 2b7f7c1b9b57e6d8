// Package mpiio reimplements the portion of MPI-IO that SDM relies on:
// derived datatypes describing noncontiguous file layouts, file views
// (MPI_File_set_view), independent read/write through a view, and —
// the paper's key optimization — collective read/write implemented with
// the two-phase algorithm (file-domain aggregation plus an all-to-all
// redistribution), so noncontiguous irregular accesses turn into large
// contiguous requests at the file system.
//
// One simplification relative to full MPI-IO: the in-memory buffer is
// always contiguous; only the file side is noncontiguous. That is
// exactly the shape of SDM's accesses (a dense local array scattered to
// global-index positions in a file).
package mpiio

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sdm/internal/pfs"
)

// Segment is a contiguous byte range, the unit derived datatypes
// flatten into. Off is relative to the datatype origin (or absolute in
// the file once a view is applied). It is an alias of pfs.Extent so a
// flattened segment list can be handed to the file system's vectored
// read/write entry points without conversion or copying.
type Segment = pfs.Extent

// Datatype describes a (possibly noncontiguous) byte layout: a sorted,
// non-overlapping list of segments within an extent. Tiling the extent
// repeatedly describes an arbitrarily long file region, as MPI filetypes
// do.
type Datatype struct {
	segs   []Segment
	prefix []int64 // prefix[i] = sum of segs[:i].Len; len = len(segs)+1
	size   int64   // bytes of data per tile
	extent int64   // span of one tile including holes
}

// Size returns the number of data bytes in one tile of the type.
func (d *Datatype) Size() int64 { return d.size }

// Extent returns the tile span including holes.
func (d *Datatype) Extent() int64 { return d.extent }

// Segments returns a copy of the flattened segment list.
func (d *Datatype) Segments() []Segment {
	out := make([]Segment, len(d.segs))
	copy(out, d.segs)
	return out
}

// newDatatype normalizes segments in place (it takes ownership of
// segs): drops empty ones, sorts unless already ascending, validates
// non-overlap, coalesces adjacency, and builds the prefix table.
func newDatatype(segs []Segment, extent int64) *Datatype {
	kept := segs[:0]
	for _, s := range segs {
		if s.Len < 0 {
			panic(fmt.Sprintf("mpiio: negative segment length %d", s.Len))
		}
		if s.Len == 0 {
			continue
		}
		if s.Off < 0 {
			panic(fmt.Sprintf("mpiio: negative segment offset %d", s.Off))
		}
		kept = append(kept, s)
	}
	byOff := func(a, b Segment) int { return cmp.Compare(a.Off, b.Off) }
	if !slices.IsSortedFunc(kept, byOff) {
		slices.SortFunc(kept, byOff)
	}
	coalesced := kept[:0]
	for _, s := range kept {
		if n := len(coalesced); n > 0 {
			last := &coalesced[n-1]
			if s.Off < last.Off+last.Len {
				panic(fmt.Sprintf("mpiio: overlapping segments at offset %d", s.Off))
			}
			if s.Off == last.Off+last.Len {
				last.Len += s.Len
				continue
			}
		}
		coalesced = append(coalesced, s)
	}
	// A type can live as long as a view does: do not keep the input's
	// backing array when coalescing shortened it.
	if len(coalesced) < cap(coalesced) {
		coalesced = slices.Clone(coalesced)
	}
	var size int64
	prefix := make([]int64, len(coalesced)+1)
	for i, s := range coalesced {
		prefix[i] = size
		size += s.Len
	}
	prefix[len(coalesced)] = size
	return &Datatype{segs: coalesced, prefix: prefix, size: size, extent: fitExtent(coalesced, extent)}
}

// fitExtent widens extent to the end of the last segment if needed.
func fitExtent(segs []Segment, extent int64) int64 {
	if n := len(segs); n > 0 {
		extent = max(extent, segs[n-1].Off+segs[n-1].Len)
	}
	return extent
}

// Bytes returns a contiguous type of n bytes.
func Bytes(n int64) *Datatype {
	if n < 0 {
		panic(fmt.Sprintf("mpiio: Bytes(%d)", n))
	}
	if n == 0 {
		return newDatatype(nil, 0)
	}
	return newDatatype([]Segment{{Off: 0, Len: n}}, n)
}

// Elementary datatype sizes, matching the C types SDM stores.
const (
	SizeInt32   = 4
	SizeInt64   = 8
	SizeFloat64 = 8
)

// Contiguous repeats old count times back to back.
func Contiguous(count int, old *Datatype) *Datatype {
	if count < 0 {
		panic(fmt.Sprintf("mpiio: Contiguous(%d)", count))
	}
	segs := make([]Segment, 0, count*len(old.segs))
	for i := 0; i < count; i++ {
		base := int64(i) * old.extent
		for _, s := range old.segs {
			segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
		}
	}
	return newDatatype(segs, int64(count)*old.extent)
}

// Vector places count blocks of blocklen olds, with consecutive block
// starts stride olds apart (MPI_Type_vector).
func Vector(count, blocklen, stride int, old *Datatype) *Datatype {
	if count < 0 || blocklen < 0 {
		panic("mpiio: Vector with negative count or blocklen")
	}
	segs := make([]Segment, 0, count*blocklen*len(old.segs))
	for i := 0; i < count; i++ {
		blockBase := int64(i) * int64(stride) * old.extent
		for j := 0; j < blocklen; j++ {
			base := blockBase + int64(j)*old.extent
			for _, s := range old.segs {
				segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
			}
		}
	}
	extent := int64(0)
	if count > 0 {
		extent = int64((count-1)*stride+blocklen) * old.extent
	}
	return newDatatype(segs, extent)
}

// Indexed places blocks of old at displacements measured in units of
// old's extent (MPI_Type_indexed). blocklens and displs must have equal
// length. This is the constructor SDM uses for irregular map arrays:
// blocklens of 1 at each global node index.
func Indexed(blocklens, displs []int, old *Datatype) *Datatype {
	if len(blocklens) != len(displs) {
		panic(fmt.Sprintf("mpiio: Indexed with %d blocklens, %d displs", len(blocklens), len(displs)))
	}
	return indexed(displs, func(k int) int { return blocklens[k] }, old)
}

// IndexedBlock is Indexed with a constant block length
// (MPI_Type_create_indexed_block), the common map-array case.
func IndexedBlock(blocklen int, displs []int, old *Datatype) *Datatype {
	return indexed(displs, func(int) int { return blocklen }, old)
}

func indexed(displs []int, blocklen func(k int) int, old *Datatype) *Datatype {
	segs := make([]Segment, 0, len(displs)*len(old.segs))
	extent := int64(0)
	for k, disp := range displs {
		n := blocklen(k)
		for j := 0; j < n; j++ {
			base := int64(disp+j) * old.extent
			for _, s := range old.segs {
				segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
			}
		}
		if e := int64(disp+n) * old.extent; e > extent {
			extent = e
		}
	}
	return newDatatype(segs, extent)
}

// Hindexed places blocks at byte displacements
// (MPI_Type_create_hindexed).
func Hindexed(blocklens []int, displs []int64, old *Datatype) *Datatype {
	if len(blocklens) != len(displs) {
		panic(fmt.Sprintf("mpiio: Hindexed with %d blocklens, %d displs", len(blocklens), len(displs)))
	}
	segs := make([]Segment, 0, len(displs)*len(old.segs))
	extent := int64(0)
	for k, disp := range displs {
		for j := 0; j < blocklens[k]; j++ {
			base := disp + int64(j)*old.extent
			for _, s := range old.segs {
				segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
			}
		}
		if e := disp + int64(blocklens[k])*old.extent; e > extent {
			extent = e
		}
	}
	return newDatatype(segs, extent)
}

// StructType combines heterogeneous types at byte displacements
// (MPI_Type_create_struct).
func StructType(blocklens []int, displs []int64, types []*Datatype) *Datatype {
	if len(blocklens) != len(displs) || len(displs) != len(types) {
		panic("mpiio: StructType with mismatched argument lengths")
	}
	var segs []Segment
	extent := int64(0)
	for k, dt := range types {
		for j := 0; j < blocklens[k]; j++ {
			base := displs[k] + int64(j)*dt.extent
			for _, s := range dt.segs {
				segs = append(segs, Segment{Off: base + s.Off, Len: s.Len})
			}
		}
		if e := displs[k] + int64(blocklens[k])*dt.extent; e > extent {
			extent = e
		}
	}
	return newDatatype(segs, extent)
}

// Resized returns old with its extent changed
// (MPI_Type_create_resized). SDM uses it to tile an irregular map-array
// type over a global array whose size exceeds the local pattern's span:
// the extent becomes the full global array size so consecutive logical
// slabs land in consecutive global slabs.
func Resized(old *Datatype, extent int64) *Datatype {
	// A type's segments and prefix table are never modified after
	// construction, so the resized type shares them.
	r := *old
	r.extent = fitExtent(old.segs, extent)
	return &r
}

// Subarray describes a row-major subarray of a larger array
// (MPI_Type_create_subarray): sizes is the full array shape, subsizes
// the selected block, starts its origin, all in elements of old.
func Subarray(sizes, subsizes, starts []int, old *Datatype) *Datatype {
	n := len(sizes)
	if len(subsizes) != n || len(starts) != n || n == 0 {
		panic("mpiio: Subarray with mismatched dimensions")
	}
	empty := false
	for d := 0; d < n; d++ {
		if subsizes[d] < 0 || starts[d] < 0 || starts[d]+subsizes[d] > sizes[d] {
			panic(fmt.Sprintf("mpiio: Subarray dim %d out of bounds", d))
		}
		if subsizes[d] == 0 {
			empty = true
		}
	}
	// Row-major strides in elements.
	strides := make([]int64, n)
	strides[n-1] = 1
	for d := n - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(sizes[d+1])
	}
	total := int64(1)
	for _, s := range sizes {
		total *= int64(s)
	}
	if empty {
		return newDatatype(nil, total*old.extent)
	}
	// Enumerate rows of the innermost dimension.
	var segs []Segment
	idx := make([]int, n-1)
	for {
		elem := int64(starts[n-1])
		for d := 0; d < n-1; d++ {
			elem += int64(starts[d]+idx[d]) * strides[d]
		}
		segs = append(segs, Segment{Off: elem * old.extent, Len: int64(subsizes[n-1]) * old.extent})
		// Odometer increment over the outer dimensions.
		d := n - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return newDatatype(segs, total*old.extent)
}

// mapRange translates a logical range of the tiled datatype into
// physical segments. disp is the absolute byte displacement of tile 0;
// logical byte L of the view corresponds to the L-th data byte of the
// infinite tiling. Returned segments are absolute, sorted, and
// coalesced across tile boundaries where physically adjacent.
func (d *Datatype) mapRange(disp, logical, n int64) []Segment {
	return d.mapRangeInto(nil, disp, logical, n)
}

// mapRangeInto is mapRange appending into dst, so steady-state callers
// that keep a scratch slice (pass dst[:0]) flatten a request without
// allocating once the scratch has grown to the request's segment count.
func (d *Datatype) mapRangeInto(dst []Segment, disp, logical, n int64) []Segment {
	if n <= 0 {
		return dst
	}
	if d.size == 0 {
		panic("mpiio: I/O through a zero-size filetype")
	}
	base := len(dst)
	tile := logical / d.size
	within := logical % d.size
	// Binary search for the segment containing `within`.
	i := sort.Search(len(d.segs), func(k int) bool { return d.prefix[k+1] > within })
	for n > 0 {
		seg := d.segs[i]
		segOff := within - d.prefix[i] // offset into this segment's data
		take := seg.Len - segOff
		if take > n {
			take = n
		}
		abs := disp + tile*d.extent + seg.Off + segOff
		if k := len(dst); k > base && dst[k-1].Off+dst[k-1].Len == abs {
			dst[k-1].Len += take
		} else {
			dst = append(dst, Segment{Off: abs, Len: take})
		}
		n -= take
		within += take
		i++
		if i == len(d.segs) {
			i = 0
			tile++
			within = 0
		}
	}
	return dst
}
