package quantiles

import (
	"math/rand"
	"sort"
	"testing"

	"melissa/internal/enc"
)

// Compaction must shrink (or at worst keep) the tuple count, release the
// working buffers, keep every quantile query inside the ε rank-error
// contract, and leave the sketch usable for further updates.
func TestSketchCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	s := New(0.02)
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.NormFloat64() * 10
	}
	for _, v := range values {
		s.Update(v)
	}
	before := s.TupleCount()
	s.Compact()
	after := len(s.tuples)
	if after > before {
		t.Fatalf("compaction grew the summary: %d -> %d tuples", before, after)
	}
	if s.pending != nil || s.scratch != nil {
		t.Fatal("compaction did not release working buffers")
	}

	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	checkRanks := func(s *Sketch, total int) {
		t.Helper()
		tol := int(float64(total)*s.Epsilon()+1) + 1
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			got := s.Query(q)
			rank := sort.SearchFloat64s(sorted[:total], got)
			want := int(q * float64(total))
			if rank < want-tol || rank > want+tol {
				t.Fatalf("q=%v: rank %d outside %d±%d after compaction", q, rank, want, tol)
			}
		}
	}
	checkRanks(s, n)

	// The sketch keeps absorbing values after compaction.
	extra := s.N()
	for _, v := range values[:100] {
		s.Update(v)
	}
	if s.N() != extra+100 {
		t.Fatalf("post-compaction updates lost: n=%d", s.N())
	}
}

// Compaction is deterministic: equal operation sequences compact to equal
// encodings, which is what keeps checkpoints FoldWorkers-invariant when the
// server compacts before writing.
func TestSketchCompactDeterministic(t *testing.T) {
	build := func() *Sketch {
		s := New(0.05)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5000; i++ {
			s.Update(rng.ExpFloat64())
		}
		s.Compact()
		return s
	}
	w1 := enc.NewWriter(1024)
	build().Encode(w1)
	w2 := enc.NewWriter(1024)
	build().Encode(w2)
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("compacted encodings differ for identical operation sequences")
	}
}

// Field.Compact shrinks the encoded checkpoint payload of a busy field and
// preserves per-cell queries within ε.
func TestFieldCompactShrinksEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const cells, samples = 32, 4000
	f := NewField(cells, 0.02)
	values := make([]float64, cells)
	for s := 0; s < samples; s++ {
		for i := range values {
			values[i] = rng.NormFloat64() + float64(i)
		}
		f.Update(values)
	}
	preQueries := f.QueryField(0.5, nil)
	preTuples := f.TupleCount()

	wBefore := enc.NewWriter(1 << 16)
	EncodeStitched(wBefore, []*Field{f})

	f.Compact()
	wAfter := enc.NewWriter(1 << 16)
	EncodeStitched(wAfter, []*Field{f})

	if f.TupleCount() > preTuples {
		t.Fatalf("field compaction grew tuples: %d -> %d", preTuples, f.TupleCount())
	}
	if wAfter.Len() > wBefore.Len() {
		t.Fatalf("compaction grew the encoding: %d -> %d bytes", wBefore.Len(), wAfter.Len())
	}
	// Compaction may merge tuples, but the ε contract bounds how far any
	// query can move: both answers were within ±εn, so they are within 2εn
	// of each other in rank — for this smooth stream, numerically close.
	post := f.QueryField(0.5, nil)
	for i := range post {
		if d := post[i] - preQueries[i]; d > 0.5 || d < -0.5 {
			t.Fatalf("cell %d: median moved %v after compaction", i, d)
		}
	}
}

func TestFieldTupleCount(t *testing.T) {
	f := NewField(4, 0.1)
	if f.TupleCount() != 0 {
		t.Fatalf("fresh field has %d tuples", f.TupleCount())
	}
	values := []float64{1, 2, 3, 4}
	for s := 0; s < 200; s++ {
		f.Update(values)
	}
	tc := f.TupleCount()
	if tc <= 0 {
		t.Fatal("tuple count not positive after updates")
	}
	// Telemetry matches the per-sketch counts.
	var manual int64
	for i := 0; i < f.Cells(); i++ {
		manual += int64(f.sketches[i].TupleCount())
	}
	if tc != manual {
		t.Fatalf("TupleCount %d != per-sketch sum %d", tc, manual)
	}
}

// Field.UpdatePair must be bitwise identical to Update(a) then Update(b) —
// per-cell sketch sequences are what FoldWorkers-invariance rests on.
func TestFieldUpdatePairMatchesTwoUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const cells, rounds = 11, 60
	f1 := NewField(cells, 0.05)
	f2 := NewField(cells, 0.05)
	a := make([]float64, cells)
	b := make([]float64, cells)
	for r := 0; r < rounds; r++ {
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		f1.Update(a)
		f1.Update(b)
		f2.UpdatePair(a, b)
	}
	if f1.N() != f2.N() {
		t.Fatalf("n diverged: %d vs %d", f1.N(), f2.N())
	}
	w1 := enc.NewWriter(1024)
	EncodeStitched(w1, []*Field{f1})
	w2 := enc.NewWriter(1024)
	EncodeStitched(w2, []*Field{f2})
	if string(w1.Bytes()) != string(w2.Bytes()) {
		t.Fatal("UpdatePair sketches not bitwise identical to two Updates")
	}
}
