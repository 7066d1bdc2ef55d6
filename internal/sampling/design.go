package sampling

import (
	"fmt"
	"math/rand/v2"
)

// Design is a pick-freeze experiment design: two independent n×p matrices A
// and B plus the derived matrices C^k (matrix A with column k replaced by
// column k of B), following Sec. 3.2.
//
// Rows are lazily derived from (Seed, row index), never stored, so a Design
// for n = 10^6 groups costs no memory and any row can be regenerated after a
// failure. All the per-group parameter sets of a study are fully determined
// by (Seed, Params, row index).
type Design struct {
	params []Distribution
	n      int
	seed   uint64
}

// NewDesign creates a design for the given parameter laws with n base rows
// (n simulation groups) derived from the master seed.
func NewDesign(params []Distribution, n int, seed uint64) *Design {
	if len(params) == 0 {
		panic("sampling: design needs at least one parameter")
	}
	if n < 1 {
		panic("sampling: design needs at least one row")
	}
	cp := make([]Distribution, len(params))
	copy(cp, params)
	return &Design{params: cp, n: n, seed: seed}
}

// P returns the number of input parameters (p in the paper).
func (d *Design) P() int { return len(d.params) }

// N returns the number of rows (simulation groups) in the design.
func (d *Design) N() int { return d.n }

// Seed returns the master seed.
func (d *Design) Seed() uint64 { return d.seed }

// Params returns the parameter laws (shared slice; callers must not modify).
func (d *Design) Params() []Distribution { return d.params }

// GroupSize returns p+2, the number of simulations per group (Sec. 3.3).
func (d *Design) GroupSize() int { return len(d.params) + 2 }

// rowRNG returns an independent deterministic stream for one row of one
// matrix. which is 0 for A and 1 for B; mixing it and the row index into the
// PCG seed decorrelates all streams.
func (d *Design) rowRNG(which uint64, row int) *rand.Rand {
	// splitmix64-style mixing of (seed, which, row) into the two PCG words.
	mix := func(z uint64) uint64 {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	h1 := mix(d.seed ^ mix(which+1))
	h2 := mix(h1 ^ mix(uint64(row)+0x632be59bd9b4e019))
	return rand.New(rand.NewPCG(h1, h2))
}

// RowA returns row i of matrix A (a fresh slice of length p).
func (d *Design) RowA(i int) []float64 {
	d.checkRow(i)
	rng := d.rowRNG(0, i)
	row := make([]float64, len(d.params))
	for k, dist := range d.params {
		row[k] = dist.Sample(rng)
	}
	return row
}

// RowB returns row i of matrix B.
func (d *Design) RowB(i int) []float64 {
	d.checkRow(i)
	rng := d.rowRNG(1, i)
	row := make([]float64, len(d.params))
	for k, dist := range d.params {
		row[k] = dist.Sample(rng)
	}
	return row
}

// RowC returns row i of matrix C^k: row i of A with element k replaced by
// element k of row i of B. k is zero-based (column index).
func (d *Design) RowC(i, k int) []float64 {
	if k < 0 || k >= len(d.params) {
		panic(fmt.Sprintf("sampling: C^k column %d out of range [0,%d)", k, len(d.params)))
	}
	row := d.RowA(i)
	row[k] = d.RowB(i)[k]
	return row
}

// GroupRows returns the p+2 parameter sets of group i in intra-group order
// (A_i, B_i, C^1_i, ..., C^p_i). Running these p+2 simulations synchronously
// is what lets the server update every Sobol' index with O(1) extra memory
// (Sec. 3.3, 4.1).
func (d *Design) GroupRows(i int) [][]float64 {
	rows := make([][]float64, d.GroupSize())
	rows[0] = d.RowA(i)
	rows[1] = d.RowB(i)
	for k := 0; k < len(d.params); k++ {
		rows[k+2] = d.RowC(i, k)
	}
	return rows
}

// Extend grows the design by extra rows and returns the indices of the new
// rows. Because rows are derived deterministically and independently,
// extending never perturbs existing rows — the statistical-validity property
// of Sec. 3.2 ("it is statistically valid to generate randomly new couples
// of rows").
func (d *Design) Extend(extra int) []int {
	if extra < 0 {
		panic("sampling: negative extension")
	}
	ids := make([]int, extra)
	for j := range ids {
		ids[j] = d.n + j
	}
	d.n += extra
	return ids
}

func (d *Design) checkRow(i int) {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("sampling: row %d out of range [0,%d)", i, d.n))
	}
}
