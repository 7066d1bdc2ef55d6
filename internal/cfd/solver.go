package cfd

import (
	"fmt"
	"math"
)

// Solver integrates the dye convection-diffusion equation on the frozen
// tube-bundle flow. One Solver is immutable after construction and can run
// many parameter sets (concurrently, each Run uses only local state): this
// mirrors the paper's setup where all 8000 simulations share one frozen
// flow and differ only in their injection parameters.
type Solver struct {
	cfg      Config
	flow     *flowField
	dt       float64 // substep size
	substeps int     // substeps per output timestep
}

// Diagnostics reports the mass budget of one run, used by the conservation
// tests: Injected ≈ Outflow + Final up to round-off.
type Diagnostics struct {
	InjectedMass float64 // total tracer volume entered through the inlet
	OutflowMass  float64 // total tracer volume left through the outlet
	FinalMass    float64 // tracer volume in the domain after the last step
	Steps        int     // total substeps taken
}

// NewSolver validates the configuration and precomputes the frozen flow and
// the stable substep.
func NewSolver(cfg Config) (*Solver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flow := newFlowField(cfg)
	g := cfg.Grid()
	dx, dy := g.Dx(), g.Dy()

	minD := math.Min(dx, dy)
	dtAdv := cfg.CFL * minD / math.Max(flow.maxFaceSpeed, 1e-12)
	dt := dtAdv
	if cfg.Diffusivity > 0 {
		dtDiff := cfg.CFL * 0.25 * minD * minD / cfg.Diffusivity
		dt = math.Min(dt, dtDiff)
	}
	outInterval := cfg.TotalTime / float64(cfg.Timesteps)
	substeps := int(math.Ceil(outInterval / dt))
	if substeps < 1 {
		substeps = 1
	}
	return &Solver{
		cfg:      cfg,
		flow:     flow,
		dt:       outInterval / float64(substeps),
		substeps: substeps,
	}, nil
}

// Cells returns the number of mesh cells (the per-timestep field size).
func (s *Solver) Cells() int { return s.cfg.Nx * s.cfg.Ny }

// SubstepsPerOutput returns how many internal steps advance one output step.
func (s *Solver) SubstepsPerOutput() int { return s.substeps }

// Dt returns the internal substep size.
func (s *Solver) Dt() float64 { return s.dt }

// MaxFaceSpeed returns the peak face speed of the frozen flow.
func (s *Solver) MaxFaceSpeed() float64 { return s.flow.maxFaceSpeed }

// Solid reports whether cell idx lies inside a tube.
func (s *Solver) Solid(idx int) bool { return s.flow.solid[idx] }

// MaxDivergence returns the largest |net volumetric outflow| over all cells
// of the frozen flow — zero to round-off by construction.
func (s *Solver) MaxDivergence() float64 {
	var worst float64
	for j := 0; j < s.cfg.Ny; j++ {
		for i := 0; i < s.cfg.Nx; i++ {
			if d := math.Abs(s.flow.divergence(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// inletConc returns the dye concentration imposed at inlet height y at time
// t for the given parameters: each injector covers a band centered in its
// half of the inlet, active until its duration elapses (Sec. 5.2).
func (s *Solver) inletConc(y, t float64, p Params) float64 {
	ly := s.cfg.Ly
	if y >= ly/2 {
		if t <= p.DurUpper && math.Abs(y-0.75*ly) <= p.WidthUpper/2 {
			return p.ConcUpper
		}
		return 0
	}
	if t <= p.DurLower && math.Abs(y-0.25*ly) <= p.WidthLower/2 {
		return p.ConcLower
	}
	return 0
}

// Run integrates the dye field for one parameter set. After each output
// timestep it calls emit(step, field) with step in [0, Timesteps) and the
// current concentration field (row-major, Nx*Ny). The field slice is reused
// between calls: receivers must copy what they keep. emit may be nil; when
// it returns false the run aborts early (used by crash injection), and the
// returned diagnostics cover only the steps taken.
func (s *Solver) Run(p Params, emit func(step int, field []float64) bool) Diagnostics {
	nx, ny := s.cfg.Nx, s.cfg.Ny
	dx, dy := s.cfg.Lx/float64(nx), s.cfg.Ly/float64(ny)
	vol := dx * dy
	kappa := s.cfg.Diffusivity
	f := s.flow
	dt := s.dt

	c := make([]float64, nx*ny)
	net := make([]float64, nx*ny) // net volumetric tracer inflow per cell
	var diag Diagnostics
	t := 0.0

	for step := 0; step < s.cfg.Timesteps; step++ {
		for sub := 0; sub < s.substeps; sub++ {
			for i := range net {
				net[i] = 0
			}
			// Advection through vertical faces (including inlet/outlet).
			for j := 0; j < ny; j++ {
				yc := (float64(j) + 0.5) * dy
				row := j * nx
				for i := 0; i <= nx; i++ {
					q := f.qe[i+j*(nx+1)]
					if q == 0 {
						continue
					}
					var up float64 // upwind concentration
					switch {
					case q > 0 && i == 0: // inflow from the inlet
						up = s.inletConc(yc, t, p)
						diag.InjectedMass += q * up * dt
					case q > 0:
						up = c[row+i-1]
					case i == nx: // q < 0: backflow from outlet (clean water)
						up = 0
						diag.InjectedMass += -q * up * dt
					default:
						up = c[row+i]
					}
					flux := q * up
					if i > 0 {
						net[row+i-1] -= flux
					} else if flux < 0 {
						diag.OutflowMass += -flux * dt
					}
					if i < nx {
						net[row+i] += flux
					} else if flux > 0 {
						diag.OutflowMass += flux * dt
					}
				}
			}
			// Advection through horizontal faces (walls carry zero flux by
			// construction of the streamfunction).
			for j := 1; j < ny; j++ {
				for i := 0; i < nx; i++ {
					q := f.qn[i+j*nx]
					if q == 0 {
						continue
					}
					var up float64
					if q > 0 {
						up = c[i+(j-1)*nx]
					} else {
						up = c[i+j*nx]
					}
					flux := q * up
					net[i+(j-1)*nx] -= flux
					net[i+j*nx] += flux
				}
			}
			// Diffusion across interior faces (conservative flux form,
			// zero-gradient at all boundaries).
			if kappa > 0 {
				kx := kappa * dy / dx
				ky := kappa * dx / dy
				for j := 0; j < ny; j++ {
					row := j * nx
					for i := 1; i < nx; i++ {
						fl := kx * (c[row+i-1] - c[row+i])
						net[row+i] += fl
						net[row+i-1] -= fl
					}
				}
				for j := 1; j < ny; j++ {
					for i := 0; i < nx; i++ {
						fl := ky * (c[i+(j-1)*nx] - c[i+j*nx])
						net[i+j*nx] += fl
						net[i+(j-1)*nx] -= fl
					}
				}
			}
			scale := dt / vol
			for i := range c {
				c[i] += scale * net[i]
			}
			t += dt
			diag.Steps++
		}
		if emit != nil && !emit(step, c) {
			break
		}
	}
	for _, v := range c {
		diag.FinalMass += v * vol
	}
	return diag
}

// RunRow is a convenience wrapper taking a design row instead of Params.
func (s *Solver) RunRow(row []float64, emit func(step int, field []float64) bool) Diagnostics {
	return s.Run(ParamsFromRow(row), emit)
}

// String summarizes the solver setup.
func (s *Solver) String() string {
	return fmt.Sprintf("tube-bundle %dx%d, %d output steps x %d substeps (dt=%.3g, max|u|=%.3g)",
		s.cfg.Nx, s.cfg.Ny, s.cfg.Timesteps, s.substeps, s.dt, s.flow.maxFaceSpeed)
}
