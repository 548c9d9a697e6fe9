// Package grid layers two-dimensional HPF-style distributions over the
// one-dimensional collection base, the way pC++ programs built distributed
// grids "over the distributed array base" (paper §4). A Grid2D maps (row,
// col) coordinates onto a linearized element index and owns a processor
// mesh of procRows × procCols ranks, with an independent HPF pattern per
// dimension — (BLOCK, BLOCK), (CYCLIC, BLOCK), and so on.
//
// The resulting ownership is materialized as an EXPLICIT distribution, so
// grids flow through d/streams like any other collection: the owner table
// travels in the record header and a reader may restore the grid under a
// completely different layout.
package grid

import (
	"fmt"

	"pcxxstreams/internal/distr"
)

// Grid2D describes a rows × cols grid distributed over a procRows ×
// procCols processor mesh.
type Grid2D struct {
	Rows, Cols         int
	ProcRows, ProcCols int
	dist               *distr.Distribution
}

// dimOwner computes the 1-D HPF owner of index i among n cells on p procs.
func dimOwner(i, n, p int, mode distr.Mode, blockSize int) int {
	switch mode {
	case distr.Block:
		blk := (n + p - 1) / p
		return i / blk
	case distr.Cyclic:
		return i % p
	case distr.BlockCyclic:
		return (i / blockSize) % p
	}
	panic(fmt.Sprintf("grid: unsupported per-dimension mode %v", mode))
}

// New2D builds a grid of rows × cols elements over a procRows × procCols
// mesh with the given distribution pattern per dimension. blockR/blockC are
// the BLOCK_CYCLIC block sizes (ignored for other modes). The total rank
// count is procRows · procCols; rank layout is row-major over the mesh.
func New2D(rows, cols, procRows, procCols int, rowMode, colMode distr.Mode, blockR, blockC int) (*Grid2D, error) {
	if rows <= 0 || cols <= 0 || procRows <= 0 || procCols <= 0 {
		return nil, fmt.Errorf("grid: invalid shape %dx%d over %dx%d", rows, cols, procRows, procCols)
	}
	for _, m := range []distr.Mode{rowMode, colMode} {
		if m == distr.Explicit {
			return nil, fmt.Errorf("grid: per-dimension mode must be a pattern, got %v", m)
		}
	}
	if rowMode == distr.BlockCyclic && blockR <= 0 {
		return nil, fmt.Errorf("grid: BLOCK_CYCLIC rows need a positive block, got %d", blockR)
	}
	if colMode == distr.BlockCyclic && blockC <= 0 {
		return nil, fmt.Errorf("grid: BLOCK_CYCLIC cols need a positive block, got %d", blockC)
	}
	owners := make([]int, rows*cols)
	for i := 0; i < rows; i++ {
		pr := dimOwner(i, rows, procRows, rowMode, blockR)
		for j := 0; j < cols; j++ {
			pc := dimOwner(j, cols, procCols, colMode, blockC)
			owners[i*cols+j] = pr*procCols + pc
		}
	}
	d, err := distr.NewExplicit(owners, procRows*procCols)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	return &Grid2D{Rows: rows, Cols: cols, ProcRows: procRows, ProcCols: procCols, dist: d}, nil
}

// Dist returns the grid's linearized distribution, usable anywhere a
// one-dimensional distribution is (collections, d/streams).
func (g *Grid2D) Dist() *distr.Distribution { return g.dist }

// Index linearizes (row, col) to the element index (row-major).
func (g *Grid2D) Index(row, col int) int {
	if row < 0 || row >= g.Rows || col < 0 || col >= g.Cols {
		panic(fmt.Sprintf("grid: (%d,%d) outside %dx%d", row, col, g.Rows, g.Cols))
	}
	return row*g.Cols + col
}

// Coords inverts Index.
func (g *Grid2D) Coords(idx int) (row, col int) {
	if idx < 0 || idx >= g.Rows*g.Cols {
		panic(fmt.Sprintf("grid: index %d outside %dx%d", idx, g.Rows, g.Cols))
	}
	return idx / g.Cols, idx % g.Cols
}

// Owner returns the rank owning grid cell (row, col).
func (g *Grid2D) Owner(row, col int) int {
	return g.dist.Owner(g.Index(row, col))
}

func (g *Grid2D) String() string {
	return fmt.Sprintf("GRID(%dx%d over %dx%d mesh)", g.Rows, g.Cols, g.ProcRows, g.ProcCols)
}

// Grid3D describes an nx × ny × nz grid distributed over a px × py × pz
// processor mesh — the shape of 3-D field solvers.
type Grid3D struct {
	NX, NY, NZ int
	PX, PY, PZ int
	dist       *distr.Distribution
}

// New3D builds a 3-D grid with an HPF pattern per dimension (BLOCK or
// CYCLIC; BLOCK_CYCLIC uses the given block sizes). Linearization and rank
// layout are row-major (x outermost).
func New3D(nx, ny, nz, px, py, pz int, mx, my, mz distr.Mode, bx, by, bz int) (*Grid3D, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 || px <= 0 || py <= 0 || pz <= 0 {
		return nil, fmt.Errorf("grid: invalid 3-D shape %dx%dx%d over %dx%dx%d", nx, ny, nz, px, py, pz)
	}
	dims := []struct {
		n, p, b int
		m       distr.Mode
	}{{nx, px, bx, mx}, {ny, py, by, my}, {nz, pz, bz, mz}}
	for i, d := range dims {
		if d.m == distr.Explicit {
			return nil, fmt.Errorf("grid: per-dimension mode must be a pattern (dim %d)", i)
		}
		if d.m == distr.BlockCyclic && d.b <= 0 {
			return nil, fmt.Errorf("grid: BLOCK_CYCLIC dim %d needs a positive block", i)
		}
	}
	owners := make([]int, nx*ny*nz)
	idx := 0
	for i := 0; i < nx; i++ {
		oi := dimOwner(i, nx, px, mx, bx)
		for j := 0; j < ny; j++ {
			oj := dimOwner(j, ny, py, my, by)
			for k := 0; k < nz; k++ {
				ok := dimOwner(k, nz, pz, mz, bz)
				owners[idx] = (oi*py+oj)*pz + ok
				idx++
			}
		}
	}
	d, err := distr.NewExplicit(owners, px*py*pz)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	return &Grid3D{NX: nx, NY: ny, NZ: nz, PX: px, PY: py, PZ: pz, dist: d}, nil
}

// Dist returns the linearized distribution.
func (g *Grid3D) Dist() *distr.Distribution { return g.dist }

// Index linearizes (i, j, k), row-major.
func (g *Grid3D) Index(i, j, k int) int {
	if i < 0 || i >= g.NX || j < 0 || j >= g.NY || k < 0 || k >= g.NZ {
		panic(fmt.Sprintf("grid: (%d,%d,%d) outside %dx%dx%d", i, j, k, g.NX, g.NY, g.NZ))
	}
	return (i*g.NY+j)*g.NZ + k
}

// Coords inverts Index.
func (g *Grid3D) Coords(idx int) (i, j, k int) {
	if idx < 0 || idx >= g.NX*g.NY*g.NZ {
		panic(fmt.Sprintf("grid: index %d outside %dx%dx%d", idx, g.NX, g.NY, g.NZ))
	}
	k = idx % g.NZ
	j = (idx / g.NZ) % g.NY
	i = idx / (g.NY * g.NZ)
	return
}

// Owner returns the rank owning cell (i, j, k).
func (g *Grid3D) Owner(i, j, k int) int { return g.dist.Owner(g.Index(i, j, k)) }

func (g *Grid3D) String() string {
	return fmt.Sprintf("GRID(%dx%dx%d over %dx%dx%d mesh)", g.NX, g.NY, g.NZ, g.PX, g.PY, g.PZ)
}
