// Package obs is the live telemetry plane: a low-overhead instrumentation
// core safe to call from the server's fold workers and the clients' send
// paths, plus the HTTP endpoint (http.go) that exposes it while a study is
// running.
//
// Every signal the framework used to report only as an end-of-run snapshot
// (Result.WireStats, CheckpointStats, quantile TupleCount, fold-queue
// backpressure, payload-pool balance) has a live mirror here; the launcher's
// heartbeat monitoring of Sec. 4.2 is the fault-tolerance half of the same
// concern, and the multi-study service on the ROADMAP reads this plane
// instead of quiescing the pipeline.
//
// Design constraints, in order:
//
//   - Hot-path updates are one or two uncontended atomic adds — no locks, no
//     maps, no interface dispatch, zero allocation. Metrics are package-level
//     (or struct-field) pointers resolved once at setup, never looked up per
//     event. Histogram observation buckets by the IEEE-754 exponent of the
//     value, so recording a latency costs an exponent extraction and two
//     atomic adds.
//   - Reading is wait-free for writers: scrapes load the same atomics and
//     never pause instrumented code.
//   - Creation is idempotent (get-or-create by name), so tests and
//     long-lived processes that construct several servers share one
//     process-wide registry without double-registration panics.
//
// The exposition format is the Prometheus text format (version 0.0.4); the
// /status endpoint serves JSON snapshots assembled from registered status
// sections (Registry.SetStatus).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and are dropped).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (occupancy, sizes, widths).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the stored value (0 before the first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram buckets: one per IEEE-754 binary exponent from 2^histMinExp to
// 2^histMaxExp. In seconds that spans ~0.93 ns to 64 s — every latency this
// system produces — while a generic value histogram (batch sizes, bytes)
// gets power-of-two buckets over the same range shifted into positives.
const (
	histMinExp = -30
	histMaxExp = 6
	// histBuckets counts the finite buckets; observations above the top
	// bound land in the implicit +Inf bucket (count - sum of finite).
	histBuckets = histMaxExp - histMinExp + 1
)

// Histogram is a fixed-bucket distribution with power-of-two bounds.
// Observe costs an exponent extraction and three atomic adds; there is no
// per-observation allocation, lock or bound search.
type Histogram struct {
	count atomic.Int64
	// sum accumulates in nano-units (value × 1e9) so it stays a single
	// atomic add; the exposition divides back out.
	sumNano atomic.Int64
	buckets [histBuckets]atomic.Int64
	// overflow counts observations above the top finite bound.
	overflow atomic.Int64
}

// Observe records one value (typically seconds for latencies).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.count.Add(1)
	h.sumNano.Add(int64(v * 1e9))
	// The unbiased exponent of v selects the bucket: values in
	// [2^e, 2^(e+1)) land in the bucket with upper bound 2^(e+1).
	e := int(math.Float64bits(v)>>52&0x7ff) - 1023
	switch {
	case e < histMinExp: // includes v == 0 (biased exponent 0 → e = -1023)
		h.buckets[0].Add(1)
	case e > histMaxExp:
		h.overflow.Add(1)
	default:
		h.buckets[e-histMinExp].Add(1)
	}
}

// ObserveSince records the seconds elapsed since t0 — the one-liner for
// latency sections: t0 := time.Now(); ...; h.ObserveSince(t0).
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return float64(h.sumNano.Load()) / 1e9 }

// kind discriminates the metric families of a registry.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
	funcKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, funcKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with its labeled series. Unlabeled metrics are
// the single series with an empty label value.
type family struct {
	name, help string
	label      string // label key ("" = unlabeled)
	kind       kind

	mu     sync.Mutex
	order  []string
	series map[string]any // *Counter | *Gauge | *Histogram | func() float64
}

// get returns the series for one label value, creating it on first use.
func (f *family) get(value string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[value]; ok {
		return s
	}
	var s any
	switch f.kind {
	case counterKind:
		s = &Counter{}
	case gaugeKind:
		s = &Gauge{}
	case histogramKind:
		s = &Histogram{}
	}
	f.series[value] = s
	f.order = append(f.order, value)
	return s
}

// Registry is a set of named metrics plus named status sections. The
// process-wide Default registry is what the package-level constructors and
// the HTTP endpoint use; tests may build their own.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	statusMu sync.Mutex
	status   map[string]func() any
	statOrd  []string

	// scraped is when the endpoint last served /metrics (UnixNano, 0: never).
	scraped atomic.Int64
}

// ScrapedAt returns the UnixNano time of the last /metrics request served
// from this registry (0: never), so a component can skip refreshing a costly
// gauge nobody is scraping.
func (r *Registry) ScrapedAt() int64 { return r.scraped.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		status:   make(map[string]func() any),
	}
}

// Default is the process-wide registry.
var Default = NewRegistry()

// family gets or creates a metric family. Re-registering an existing name
// returns the existing family when the kind matches and panics otherwise —
// a name cannot silently change meaning mid-process.
func (r *Registry) family(name, help, label string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, f.kind))
		}
		return f
	}
	f := &family{name: name, help: help, label: label, kind: k,
		series: make(map[string]any)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// NewCounter gets or creates an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.family(name, help, "", counterKind).get("").(*Counter)
}

// NewGauge gets or creates an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.family(name, help, "", gaugeKind).get("").(*Gauge)
}

// NewHistogram gets or creates an unlabeled histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.family(name, help, "", histogramKind).get("").(*Histogram)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the counter for one label value (created on first use).
func (v CounterVec) With(value string) *Counter { return v.f.get(value).(*Counter) }

// NewCounterVec gets or creates a counter family with one label key.
func (r *Registry) NewCounterVec(name, help, label string) CounterVec {
	return CounterVec{r.family(name, help, label, counterKind)}
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value (created on first use).
func (v GaugeVec) With(value string) *Gauge { return v.f.get(value).(*Gauge) }

// NewGaugeVec gets or creates a gauge family with one label key.
func (r *Registry) NewGaugeVec(name, help, label string) GaugeVec {
	return GaugeVec{r.family(name, help, label, gaugeKind)}
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value (created on first use).
func (v HistogramVec) With(value string) *Histogram { return v.f.get(value).(*Histogram) }

// NewHistogramVec gets or creates a histogram family with one label key.
func (r *Registry) NewHistogramVec(name, help, label string) HistogramVec {
	return HistogramVec{r.family(name, help, label, histogramKind)}
}

// NewGaugeFunc registers (or replaces) a gauge whose value is computed at
// scrape time — the zero-hot-path-cost option for values that already exist
// as atomics elsewhere (pool balances, queue occupancy). Unlike the other
// constructors, a re-registration replaces the callback: a fresh component
// instance takes the name over from a stopped one.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "", funcKind)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.series[""]; !ok {
		f.order = append(f.order, "")
	}
	f.series[""] = fn
}

// Package-level constructors on the Default registry.

// NewCounter gets or creates an unlabeled counter in Default.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge gets or creates an unlabeled gauge in Default.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram gets or creates an unlabeled histogram in Default.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// NewCounterVec gets or creates a labeled counter family in Default.
func NewCounterVec(name, help, label string) CounterVec {
	return Default.NewCounterVec(name, help, label)
}

// NewGaugeVec gets or creates a labeled gauge family in Default.
func NewGaugeVec(name, help, label string) GaugeVec { return Default.NewGaugeVec(name, help, label) }

// NewHistogramVec gets or creates a labeled histogram family in Default.
func NewHistogramVec(name, help, label string) HistogramVec {
	return Default.NewHistogramVec(name, help, label)
}

// NewGaugeFunc registers a scrape-time gauge in Default.
func NewGaugeFunc(name, help string, fn func() float64) { Default.NewGaugeFunc(name, help, fn) }

// SetStatus registers (or replaces) one named section of the /status JSON
// document: fn is called at request time and its result JSON-marshaled under
// the section key. A fresh component instance (e.g. a restarted server)
// simply re-registers its section.
func (r *Registry) SetStatus(section string, fn func() any) {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	if _, ok := r.status[section]; !ok {
		r.statOrd = append(r.statOrd, section)
	}
	r.status[section] = fn
}

// SetStatus registers a /status section in Default.
func SetStatus(section string, fn func() any) { Default.SetStatus(section, fn) }

// statusSections snapshots the registered sections for the HTTP handler.
func (r *Registry) statusSections() (names []string, fns []func() any) {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	names = append(names, r.statOrd...)
	for _, n := range names {
		fns = append(fns, r.status[n])
	}
	return names, fns
}

// WriteMetrics writes the whole registry in the Prometheus text exposition
// format (sorted by metric name; label values in creation order).
func (r *Registry) WriteMetrics(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		values := append([]string(nil), f.order...)
		series := make([]any, len(values))
		for i, v := range values {
			series[i] = f.series[v]
		}
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for i, s := range series {
			writeSeries(&b, f, values[i], s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelSuffix renders the {label="value"} part of a sample line, optionally
// with an extra le pair (histogram buckets).
func labelSuffix(f *family, value, le string) string {
	var pairs []string
	if f.label != "" {
		pairs = append(pairs, fmt.Sprintf("%s=%q", f.label, escapeLabel(value)))
	}
	if le != "" {
		pairs = append(pairs, fmt.Sprintf("le=%q", le))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

func writeSeries(b *strings.Builder, f *family, value string, s any) {
	switch m := s.(type) {
	case *Counter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, labelSuffix(f, value, ""), m.Value())
	case *Gauge:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelSuffix(f, value, ""), formatFloat(m.Value()))
	case func() float64:
		fmt.Fprintf(b, "%s%s %s\n", f.name, labelSuffix(f, value, ""), formatFloat(m()))
	case *Histogram:
		var cum int64
		for i := range m.buckets {
			cum += m.buckets[i].Load()
			bound := math.Ldexp(1, histMinExp+i+1)
			fmt.Fprintf(b, "%s_bucket%s %d\n",
				f.name, labelSuffix(f, value, formatFloat(bound)), cum)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelSuffix(f, value, "+Inf"), m.Count())
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelSuffix(f, value, ""), formatFloat(m.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelSuffix(f, value, ""), m.Count())
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
