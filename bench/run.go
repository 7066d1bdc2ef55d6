package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"melissa/internal/launcher"
	"melissa/internal/obs"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// minReps is the least number of studies an untraced run measures, whatever
// --seconds says; seedStride separates the seeds of a run's studies. Each
// study is set up setupsPerStudy times, so a run's setup_s is the median of a
// dozen set-ups, some of them under a millisecond.
const (
	minReps        = 3
	seedStride     = 1000003
	setupsPerStudy = 3
)

// Both directories are relative to the repository root, the benchmark's
// working directory: traceDir is where a traced run writes its spans,
// scratchDir holds checkpoint directories and other run-time files.
var (
	traceDir   = filepath.Join("bench", "out")
	scratchDir = ".bench_build"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload produces.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	reps     int // studies measured
	problems []string
	budget   string // the traced run's budget table
}

// measured is the raw outcome of the timed region, shared by the end-to-end
// and the per-layer metric sets.
type measured struct {
	study *study
	rec   *recorder
	tnet  *tracedNetwork

	setupS []float64 // every set-up of this study; the last one is the one that ran
	wall   float64
	cpu    float64
	res    *server.Result
	stats  launcher.Stats

	before, after counters
	profile       []byte
	peakRSSMB     float64
}

// cpuSeconds returns the user+system CPU time this process has used, and its
// peak resident set in MB.
func cpuSeconds() (cpu, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// counters is a snapshot of every number the program and the Go runtime
// already publish: the obs registry scraped as text (labels summed, histograms
// as their _sum and _count) and three runtime/metrics readings.
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	var buf bytes.Buffer
	if err := obs.Default.WriteMetrics(&buf); err == nil {
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' || strings.Contains(line, "_bucket") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			c[name] += v
		}
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			c[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			c[s.Name] = s.Value.Float64()
		}
	}
	return c
}

// delta returns how much a counter grew over the timed region.
func (m *measured) delta(name string) float64 { return m.after[name] - m.before[name] }

// measure sets the study up, runs it through launcher.Run and records
// everything observable from outside. Only the two clock reads per member are
// on in an untraced run; a traced run adds the span recorder, the network
// wrapper and a CPU profile.
func measure(w workload, seed uint64, traced bool) (*measured, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	m := &measured{}
	var wrap func(transport.Network) transport.Network
	if traced {
		wrap = func(n transport.Network) transport.Network {
			m.tnet = newTracedNetwork(n)
			return m.tnet
		}
	}
	runtime.GC() // the previous study's garbage is not this set-up's cost
	for i := 0; i < setupsPerStudy; i++ {
		if m.study != nil {
			m.study.discard()
		}
		begin := time.Now()
		s, err := setUp(w, seed, wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.study = s
		m.setupS = append(m.setupS, time.Since(begin).Seconds())
	}
	defer m.study.discard()

	// Benchmark bookkeeping, outside both setup_s and the timed region: the
	// row → group index, and a collected heap so every run starts alike.
	maxSpans := w.groups*((w.p+2)*w.steps*2+w.steps*simRanks*4+16) + 4096
	m.rec = newRecorder(m.study.design, traced, maxSpans)
	m.study.sim.rec = m.rec
	if m.tnet != nil {
		m.tnet.rec = m.rec
	}
	runtime.GC()

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	m.before = readCounters()
	cpu0, _ := cpuSeconds()
	m.rec.t0 = time.Now()
	res, stats, err := m.study.l.Run()
	m.wall = time.Since(m.rec.t0).Seconds()
	cpu1, rss := cpuSeconds()
	m.after = readCounters()
	if traced {
		pprof.StopCPUProfile()
		m.profile = prof.Bytes()
	}
	if err != nil {
		return nil, fmt.Errorf("launcher.Run: %w", err)
	}
	m.cpu, m.peakRSSMB = cpu1-cpu0, rss
	m.res, m.stats = res, stats
	return m, nil
}

// median of a sample; the input is not modified.
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// failures counts what fail_share counts: groups given up, group restarts and
// timeout kills. A crash that resumes costs none of these; one that escalates
// to a replay does.
func (m *measured) failures() int {
	return m.stats.GroupsGivenUp + m.stats.Restarts + m.stats.TimeoutKills
}

// endToEnd returns the metrics a user of the system sees.
func (m *measured) endToEnd() map[string]float64 {
	w := m.study.w
	return map[string]float64{
		"setup_s":      median(m.setupS),
		"study_wall_s": m.wall,
		"field_MBps":   float64(m.stats.GroupsFinished) / float64(w.groups) * w.fieldBytes() / m.wall / 1e6,
		"cpu_s":        m.cpu,
	}
}

// groupExecP50 is the median over groups of first member Run entry → last
// member Run return (the y-axis of the paper's Fig. 6b/6d).
func (m *measured) groupExecP50() float64 {
	spans, _ := m.rec.groupSpans()
	if len(spans) == 0 {
		return 0
	}
	return spans[len(spans)/2]
}

// runOnce is one (workload, run): studies of the workload's size, set up,
// measured and gated one after another until the measured time reaches
// seconds (at least minReps of them), each metric reported as the median over
// the studies. A traced run measures one study and adds the layer replays.
func runOnce(w workload, seed uint64, seconds float64, traced bool) (*runResult, error) {
	r := &runResult{Correct: true, Metrics: map[string]metric{}}
	if traced {
		m, err := measure(w, seed, true)
		if err != nil {
			return nil, err
		}
		gate := r.gate(m)
		spans := m.rec.recorded()
		if err := writeTrace(filepath.Join(traceDir, w.name+".trace.json"), spans); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		r.Metrics, r.budget, err = m.perLayer(spans, gate, seed)
		return r, err
	}
	samples := map[string][]float64{}
	var measuredS float64
	for rep := 0; rep < minReps || measuredS < seconds; rep++ {
		m, err := measure(w, seed+uint64(rep)*seedStride, false)
		if err != nil {
			return nil, err
		}
		r.gate(m)
		for name, v := range m.endToEnd() {
			samples[name] = append(samples[name], v)
		}
		measuredS += m.wall
		fmt.Printf("  study %d: wall %.3f s, cpu %.3f s, group exec p50 %.4f s, set-up %.4f s, %d groups\n",
			rep, m.wall, m.cpu, m.groupExecP50(), median(m.setupS), m.study.w.groups)
	}
	for _, def := range endToEndMetrics {
		r.Metrics[def.name] = metric{median(samples[def.name]), def.unit}
	}
	r.reps = len(samples["study_wall_s"])
	return r, nil
}

// gate runs the correctness gate on one measured study and folds the verdict
// into the run's result.
func (r *runResult) gate(m *measured) gateResult {
	g := checkStudy(m.study, m.res, m.stats)
	r.Attempted += m.study.w.groups
	r.Failed += m.failures()
	if len(g.problems) > 0 {
		r.Correct = false
		r.Failed++
		r.problems = append(r.problems, g.problems...)
	}
	return g
}
