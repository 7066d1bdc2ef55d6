// Package mesh provides the structured mesh and the block partitioning used
// on both sides of Melissa's data path: simulation ranks each own a
// contiguous block of cells, and the parallel server evenly partitions the
// same cell space among its processes at start time (Sec. 4.1.1). The
// overlap of the two partitionings defines the static N×M redistribution
// pattern of the two-stage transfer (Sec. 4.1.2).
package mesh

import "fmt"

// Grid is a 2D structured grid of Nx×Ny cells covering [0,Lx]×[0,Ly].
// Cells are flattened row-major: index = ix + iy*Nx.
type Grid struct {
	Nx, Ny int
	Lx, Ly float64
}

// NewGrid returns a grid with the given resolution and physical extent.
func NewGrid(nx, ny int, lx, ly float64) Grid {
	if nx < 1 || ny < 1 || lx <= 0 || ly <= 0 {
		panic(fmt.Sprintf("mesh: invalid grid %dx%d (%g x %g)", nx, ny, lx, ly))
	}
	return Grid{Nx: nx, Ny: ny, Lx: lx, Ly: ly}
}

// Cells returns the total number of cells.
func (g Grid) Cells() int { return g.Nx * g.Ny }

// Dx returns the cell width.
func (g Grid) Dx() float64 { return g.Lx / float64(g.Nx) }

// Dy returns the cell height.
func (g Grid) Dy() float64 { return g.Ly / float64(g.Ny) }

// Index returns the flat index of cell (ix, iy).
func (g Grid) Index(ix, iy int) int { return ix + iy*g.Nx }

// Center returns the physical coordinates of the center of cell (ix, iy).
func (g Grid) Center(ix, iy int) (x, y float64) {
	return (float64(ix) + 0.5) * g.Dx(), (float64(iy) + 0.5) * g.Dy()
}

// Corner returns the physical coordinates of grid corner (ix, iy), where
// corners are indexed 0..Nx × 0..Ny.
func (g Grid) Corner(ix, iy int) (x, y float64) {
	return float64(ix) * g.Dx(), float64(iy) * g.Dy()
}

// Row returns the flat indices of all cells in row iy (constant y), the
// slice extraction used to render the Fig. 7/8 maps.
func (g Grid) Row(iy int) []int {
	out := make([]int, g.Nx)
	for ix := 0; ix < g.Nx; ix++ {
		out[ix] = g.Index(ix, iy)
	}
	return out
}

// Column returns the flat indices of all cells in column ix (constant x).
func (g Grid) Column(ix int) []int {
	out := make([]int, g.Ny)
	for iy := 0; iy < g.Ny; iy++ {
		out[iy] = g.Index(ix, iy)
	}
	return out
}

// Partition is a contiguous half-open range [Lo, Hi) of flat cell indices.
type Partition struct {
	Lo, Hi int
}

// Len returns the number of cells in the partition.
func (p Partition) Len() int { return p.Hi - p.Lo }

// Contains reports whether the flat index idx lies in the partition.
func (p Partition) Contains(idx int) bool { return idx >= p.Lo && idx < p.Hi }

// Intersect returns the overlap of two partitions (possibly empty).
func (p Partition) Intersect(q Partition) Partition {
	lo, hi := p.Lo, p.Hi
	if q.Lo > lo {
		lo = q.Lo
	}
	if q.Hi < hi {
		hi = q.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Partition{Lo: lo, Hi: hi}
}

// BlockPartition splits `cells` cells into `parts` contiguous blocks whose
// sizes differ by at most one (the "evenly partitioned in space" rule of
// Sec. 4.1.1). It panics if parts < 1 or cells < 0.
func BlockPartition(cells, parts int) []Partition {
	if parts < 1 {
		panic("mesh: need at least one partition")
	}
	if cells < 0 {
		panic("mesh: negative cell count")
	}
	out := make([]Partition, parts)
	base := cells / parts
	extra := cells % parts
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Partition{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// Transfer describes one message of the N×M redistribution: the cells
// [Cells.Lo, Cells.Hi) travel from simulation rank SimRank to server process
// ServerRank.
type Transfer struct {
	SimRank    int
	ServerRank int
	Cells      Partition
}

// Route computes the static N×M redistribution pattern between a
// simulation-side partitioning (N ranks) and a server-side partitioning
// (M processes): one Transfer per non-empty overlap. Every cell appears in
// exactly one transfer (tested as the partition-completeness invariant).
func Route(simParts, serverParts []Partition) []Transfer {
	var out []Transfer
	for r, sp := range simParts {
		for s, vp := range serverParts {
			ov := sp.Intersect(vp)
			if ov.Len() > 0 {
				out = append(out, Transfer{SimRank: r, ServerRank: s, Cells: ov})
			}
		}
	}
	return out
}
