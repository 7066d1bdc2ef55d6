package main

import (
	"math"
	"math/rand/v2"
	"time"

	"melissa/internal/sampling"
)

// linfield is the benchmark's solver fixture:
//
//	y_t(i) = float64(float32(base_t(i) + a(x)·pert_t(i))),  a(x) = Σ_k 0.1·(k+1)·x_k
//
// One multiply-add per cell, so the solver is close to free and the study
// cost is the framework's. The float32 rounding gives the wire codec the
// mantissa zeros of a single-precision CFD output. The model is additive in
// the inputs, so with parameters uniform on [-1, 1] the first-order and total
// index of parameter k are both (k+1)² / Σ_j (j+1)² at every cell and step.
type linfield struct {
	cells, steps int
	base, pert   []float64 // steps × cells, step-major
	stepSleep    time.Duration
	rec          *recorder
}

// newLinfield generates the smooth base and perturbation fields from seed:
// a few travelling sinusoids each, pert kept inside [0.55, 1.45] so no cell
// has a vanishing variance.
func newLinfield(seed uint64, cells, steps int) *linfield {
	rng := rand.New(rand.NewPCG(seed, 0x6c696e6669656c64))
	type wave struct{ amp, freq, phase, drift float64 }
	draw := func(n int, amp float64) []wave {
		ws := make([]wave, n)
		for i := range ws {
			ws[i] = wave{
				amp:   amp * (0.5 + rng.Float64()) / float64(i+1),
				freq:  float64(i+1) * (1 + rng.Float64()),
				phase: 2 * math.Pi * rng.Float64(),
				drift: 2 * math.Pi * (rng.Float64() - 0.5),
			}
		}
		return ws
	}
	baseWaves, pertWaves := draw(3, 4), draw(2, 0.2)
	eval := func(ws []wave, x, tau float64) float64 {
		var s float64
		for _, w := range ws {
			s += w.amp * math.Sin(2*math.Pi*w.freq*x+w.phase+w.drift*tau)
		}
		return s
	}
	f := &linfield{
		cells: cells, steps: steps,
		base: make([]float64, cells*steps),
		pert: make([]float64, cells*steps),
	}
	for t := 0; t < steps; t++ {
		tau := float64(t) / float64(steps)
		for i := 0; i < cells; i++ {
			x := float64(i) / float64(cells)
			f.base[t*cells+i] = 20 + eval(baseWaves, x, tau)
			f.pert[t*cells+i] = 1 + eval(pertWaves, x, tau)
		}
	}
	return f
}

// amplitude is a(x) for one design row.
func amplitude(row []float64) float64 {
	var a float64
	for k, x := range row {
		a += 0.1 * float64(k+1) * x
	}
	return a
}

// fill computes cells [lo, lo+len(dst)) of one member's field at step t.
func (f *linfield) fill(dst []float64, t, lo int, a float64) {
	base := f.base[t*f.cells+lo : t*f.cells+lo+len(dst)]
	pert := f.pert[t*f.cells+lo : t*f.cells+lo+len(dst)]
	for i := range dst {
		dst[i] = float64(float32(base[i] + a*pert[i]))
	}
}

// Run implements client.Simulation. The two clock reads per member that the
// group spans need are always on; the per-step ones only in a traced run.
func (f *linfield) Run(row []float64, emit func(step int, field []float64) bool) {
	group := f.rec.enter(row)
	defer f.rec.leave(group)
	a := amplitude(row)
	field := make([]float64, f.cells)
	for t := 0; t < f.steps; t++ {
		if f.stepSleep > 0 {
			time.Sleep(f.stepSleep)
		}
		if !f.rec.traced {
			f.fill(field, t, 0, a)
			if !emit(t, field) {
				return
			}
			continue
		}
		t0 := f.rec.now()
		f.fill(field, t, 0, a)
		t1 := f.rec.now()
		ok := emit(t, field)
		t2 := f.rec.now()
		f.rec.span(spanSolverStep, group, t, t0, t1)
		f.rec.span(spanClientEmit, group, t, t1, t2)
		if !ok {
			return
		}
	}
}

// analyticFirst returns the exact first-order (= total) indices of linfield.
func analyticFirst(p int) []float64 {
	var sum float64
	for k := 0; k < p; k++ {
		sum += float64((k + 1) * (k + 1))
	}
	s := make([]float64, p)
	for k := range s {
		s[k] = float64((k+1)*(k+1)) / sum
	}
	return s
}

// uniformParams is the input law of every workload: p parameters on [-1, 1].
func uniformParams(p int) []sampling.Distribution {
	params := make([]sampling.Distribution, p)
	for k := range params {
		params[k] = sampling.Uniform{Low: -1, High: 1}
	}
	return params
}
