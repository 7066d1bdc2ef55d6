package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"melissa/internal/core"
	"melissa/internal/launcher"
	"melissa/internal/mesh"
	"melissa/internal/server"
)

// gateTolerance bounds |study − reference| relative to the magnitude of the
// compared field. Arrival order differs from the reference's group-id order,
// so the statistics agree to rounding, not bitwise.
const gateTolerance = 1e-9

// gateResult is the verdict of the correctness gate on one run.
type gateResult struct {
	problems       []string
	sobolMaxAbsErr float64 // worst |estimate − analytic S_k| at the last timestep (informational)
}

func (g *gateResult) failf(format string, args ...any) {
	if len(g.problems) < 8 {
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// referenceFold folds every group of the study through core.Accumulator in
// group-id order, one accumulator per slice of the cell range so the slices
// fold in parallel. It recomputes the fixture fields itself.
func referenceFold(s *study) ([]mesh.Partition, []*core.Accumulator) {
	w := s.w
	parts := mesh.BlockPartition(w.cells, min(runtime.GOMAXPROCS(0), w.cells))
	accs := make([]*core.Accumulator, len(parts))
	var wg sync.WaitGroup
	for pi, part := range parts {
		wg.Add(1)
		go func(pi int, part mesh.Partition) {
			defer wg.Done()
			acc := core.NewAccumulator(part.Len(), w.steps, w.p, core.Options{})
			fields := make([][]float64, w.p+2)
			for m := range fields {
				fields[m] = make([]float64, part.Len())
			}
			for g := 0; g < w.groups; g++ {
				rows := s.design.GroupRows(g)
				for t := 0; t < w.steps; t++ {
					for m, row := range rows {
						s.sim.fill(fields[m], t, part.Lo, amplitude(row))
					}
					acc.UpdateGroup(t, fields[0], fields[1], fields[2:])
				}
			}
			accs[pi] = acc
		}(pi, part)
	}
	wg.Wait()
	return parts, accs
}

// checkStudy is the correctness gate: every group finished and was folded
// exactly once at every timestep, and the mean, variance and first-order
// fields match the reference fold.
func checkStudy(s *study, res *server.Result, st launcher.Stats) gateResult {
	var g gateResult
	w := s.w
	if st.GroupsFinished != w.groups {
		g.failf("GroupsFinished = %d, want %d", st.GroupsFinished, w.groups)
	}
	for t := 0; t < w.steps; t++ {
		if n := res.GroupsFolded(t); n != int64(w.groups) {
			g.failf("GroupsFolded(%d) = %d, want %d", t, n, w.groups)
		}
	}
	if len(g.problems) > 0 {
		return g
	}
	parts, accs := referenceFold(s)
	ref := make([]float64, w.cells)
	stitch := func(get func(a *core.Accumulator, dst []float64) []float64) []float64 {
		for pi, part := range parts {
			copy(ref[part.Lo:part.Hi], get(accs[pi], nil))
		}
		return ref
	}
	compare := func(what string, t int, got, want []float64) {
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= gateTolerance*scale) {
				g.failf("%s at step %d cell %d: got %g, reference %g", what, t, i, got[i], want[i])
				return
			}
		}
	}
	for t := 0; t < w.steps; t++ {
		compare("mean", t, res.MeanField(t),
			stitch(func(a *core.Accumulator, dst []float64) []float64 { return a.MeanField(t, dst) }))
		compare("variance", t, res.VarianceField(t),
			stitch(func(a *core.Accumulator, dst []float64) []float64 { return a.VarianceField(t, dst) }))
		for k := 0; k < w.p; k++ {
			compare(fmt.Sprintf("first-order S_%d", k), t, res.FirstField(t, k),
				stitch(func(a *core.Accumulator, dst []float64) []float64 { return a.FirstField(t, k, dst) }))
		}
	}
	exact := analyticFirst(w.p)
	for k := 0; k < w.p; k++ {
		for _, v := range res.FirstField(w.steps-1, k) {
			g.sobolMaxAbsErr = math.Max(g.sobolMaxAbsErr, math.Abs(v-exact[k]))
		}
	}
	return g
}
