package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"melissa/internal/sampling"
)

// Span kinds. A group span (id = group id) is the parent of that group's
// solver.step and client.emit spans; transport spans carry the group id of the
// data frame they moved (-1 for control frames).
const (
	spanGroup = iota
	spanSolverStep
	spanClientEmit
	spanTransportSend
	spanTransportRecv
)

var spanNames = [...]string{"group", "solver.step", "client.emit", "transport.send", "transport.recv"}

type span struct {
	kind       uint8
	group, arg int32 // arg: timestep for solver/client spans, payload bytes for transport spans
	start, end int64 // ns since recorder start
}

// rowKey identifies a design row by its first four parameters (every workload
// has p ≤ 4).
type rowKey [4]float64

func keyOf(row []float64) rowKey {
	var k rowKey
	copy(k[:], row)
	return k
}

// recorder measures what the benchmark observes from outside the program:
// per-group execution spans always (two clock reads per member), and in a
// traced run every span, kept in memory until the run ends.
type recorder struct {
	t0     time.Time
	traced bool

	groupOf    map[rowKey]int32
	groupStart []atomic.Int64 // first member Run entry, ns since t0 (0 = none yet)
	groupEnd   []atomic.Int64 // last member Run return

	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// newRecorder indexes the design's rows so a member's Run can tell which group
// it belongs to. maxSpans bounds the traced run's span memory.
func newRecorder(design *sampling.Design, traced bool, maxSpans int) *recorder {
	n := design.N()
	r := &recorder{
		t0:         time.Now(),
		traced:     traced,
		groupOf:    make(map[rowKey]int32, n*design.GroupSize()),
		groupStart: make([]atomic.Int64, n),
		groupEnd:   make([]atomic.Int64, n),
	}
	for g := 0; g < n; g++ {
		for _, row := range design.GroupRows(g) {
			r.groupOf[keyOf(row)] = int32(g)
		}
	}
	if traced {
		r.spans = make([]span, maxSpans)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) + 1 }

func (r *recorder) enter(row []float64) int32 {
	g, ok := r.groupOf[keyOf(row)]
	if !ok {
		return -1
	}
	r.groupStart[g].CompareAndSwap(0, r.now())
	return g
}

func (r *recorder) leave(g int32) {
	if g < 0 {
		return
	}
	now := r.now()
	for {
		old := r.groupEnd[g].Load()
		if old >= now || r.groupEnd[g].CompareAndSwap(old, now) {
			return
		}
	}
}

func (r *recorder) span(kind uint8, group int32, arg int, start, end int64) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = span{kind: kind, group: group, arg: int32(arg), start: start, end: end}
}

// groupSpans returns the execution span of every group that ran, in seconds.
func (r *recorder) groupSpans() (durations []float64, total float64) {
	for g := range r.groupStart {
		s, e := r.groupStart[g].Load(), r.groupEnd[g].Load()
		if s == 0 || e < s {
			continue
		}
		d := float64(e-s) / 1e9
		durations = append(durations, d)
		total += d
	}
	sort.Float64s(durations)
	return durations, total
}

// firstMemberStart returns when the first member of any group entered Run.
func (r *recorder) firstMemberStart() (ns int64, ok bool) {
	for g := range r.groupStart {
		if s := r.groupStart[g].Load(); s != 0 && (!ok || s < ns) {
			ns, ok = s, true
		}
	}
	return ns, ok
}

// lastMemberEnd returns when the last member of any group returned from Run.
func (r *recorder) lastMemberEnd() (ns int64) {
	for g := range r.groupEnd {
		if e := r.groupEnd[g].Load(); e > ns {
			ns = e
		}
	}
	return ns
}

// recorded returns the spans kept, with one synthesized group span per group.
func (r *recorder) recorded() []span {
	n := min(r.next.Load(), int64(len(r.spans)))
	out := append([]span(nil), r.spans[:n]...)
	for g := range r.groupStart {
		if s, e := r.groupStart[g].Load(), r.groupEnd[g].Load(); s != 0 && e >= s {
			out = append(out, span{kind: spanGroup, group: int32(g), start: s, end: e})
		}
	}
	return out
}

// sumKind totals the duration of every span of one kind, in seconds.
func sumKind(spans []span, kind uint8) float64 {
	var ns int64
	for _, s := range spans {
		if s.kind == kind {
			ns += s.end - s.start
		}
	}
	return float64(ns) / 1e9
}

// writeTrace stores the spans in the Chrome trace-event format (one track per
// group; load it in Perfetto or chrome://tracing). Every event carries its
// group id and the name of the span that caused it.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		parent, argName := "group", "step"
		switch s.kind {
		case spanGroup:
			parent = "study"
		case spanTransportSend, spanTransportRecv:
			argName = "bytes"
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"group":%d,"parent":%q,%q:%d}}`,
			spanNames[s.kind], s.group+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3,
			s.group, parent, argName, s.arg)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
