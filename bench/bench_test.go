package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	olog "melissa/internal/obs/log"
)

// shrunk returns w at roughly 1/50 of its data volume, with the paced
// workloads' clocks scaled down alike so a crash still lands mid-stream and
// checkpoints still commit before it.
func shrunk(w workload) workload {
	w.groups = max(4, w.groups/8)
	w.cells = max(64, w.cells/8)
	if w.stepSleep > 0 {
		w.stepSleep /= 5
		w.ckptEvery /= 5
		w.crashAt = time.Duration(w.groups/maxInFlight) * time.Duration(w.steps) * w.stepSleep * 2 / 5
	}
	return w
}

func quiet(t *testing.T) {
	t.Helper()
	olog.Default.SetLevel(olog.Error)
	dir := t.TempDir()
	oldScratch, oldTrace := scratchDir, traceDir
	scratchDir, traceDir = dir, filepath.Join(dir, "out")
	t.Cleanup(func() { scratchDir, traceDir = oldScratch, oldTrace })
}

func defNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.name
	}
	slices.Sort(names)
	return names
}

// TestSmoke runs every workload at small scale through the real launcher path
// and the correctness gate, and checks the emitted end-to-end names.
func TestSmoke(t *testing.T) {
	quiet(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, err := measure(shrunk(w), 7, false)
			if err != nil {
				t.Fatal(err)
			}
			if gate := checkStudy(m.study, m.res, m.stats); len(gate.problems) > 0 {
				t.Fatalf("correctness gate: %v", gate.problems)
			}
			if w.crashAt > 0 && m.stats.ServerRestarts != 1 {
				t.Errorf("server restarts = %d, want 1 (stats %+v)", m.stats.ServerRestarts, m.stats)
			}
			e2e := m.endToEnd()
			if got, want := slices.Sorted(maps.Keys(e2e)), defNames(endToEndMetrics); !slices.Equal(got, want) {
				t.Errorf("end-to-end names %v, inventory %v", got, want)
			}
			for name, v := range e2e {
				if !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestTracedNames runs one small traced study with its replays and checks
// that exactly the per-layer inventory comes out and the budget is printed.
func TestTracedNames(t *testing.T) {
	quiet(t)
	w, _ := workloadByName("churn_mem")
	r, err := runOnce(shrunk(w), 7, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("traced run: correct=%v failed=%d problems=%v", r.Correct, r.Failed, r.problems)
	}
	if got, want := slices.Sorted(maps.Keys(r.Metrics)), defNames(perLayerMetrics); !slices.Equal(got, want) {
		t.Errorf("per-layer names %v, inventory %v", got, want)
	}
	if r.budget == "" {
		t.Error("no budget table")
	}
	if _, err := os.Stat(filepath.Join(traceDir, "churn_mem.trace.json")); err != nil {
		t.Errorf("trace file: %v", err)
	}
}

// TestInventory pins the workload and metric names: BENCHMARK.json and the
// tables in this package must agree exactly, so a rename is deliberate.
func TestInventory(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark {%s %s}", i, got, w.name, w.why)
		}
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
	if len(file.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(file.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		got := file.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
		if !valid.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
	}
	if len(file.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(file.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		got := file.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, got, d)
		}
		if !valid.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestCPUByPackage(t *testing.T) {
	byPkg, total := cpuByPackage([]cpuSample{
		{stack: []string{"math.tanh", "melissa/internal/sobol.firstOrderInterval", "melissa/internal/core.(*Accumulator).MaxCIWidth"}, seconds: 3},
		{stack: []string{"runtime.memmove", "main.(*linfield).Run", "melissa/internal/client.RunGroup.func1"}, seconds: 2},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, seconds: 1},
		{stack: []string{"runtime.futex", "runtime.schedule"}, seconds: 0.5},
		{stack: []string{"melissa/internal/obs/log.(*Logger).Event"}, seconds: 0.25},
	})
	want := map[string]float64{"sobol": 3, "bench": 2, "gc": 1, "other": 0.75}
	if total != 6.75 {
		t.Errorf("total = %v", total)
	}
	for pkg, s := range want {
		if byPkg[pkg] != s {
			t.Errorf("%s = %v, want %v", pkg, byPkg[pkg], s)
		}
	}
}
