package quantiles

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"melissa/internal/enc"
)

// synthetic sample streams exercising distinct distribution shapes,
// including heavy duplication (plateaus are the classic GK stress case).
func sampleStreams(rng *rand.Rand, n int) map[string][]float64 {
	streams := map[string][]float64{}
	normal := make([]float64, n)
	uniform := make([]float64, n)
	skewed := make([]float64, n)
	plateau := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = rng.NormFloat64()*3 + 10
		uniform[i] = rng.Float64() * 100
		skewed[i] = math.Exp(rng.NormFloat64()) // log-normal
		plateau[i] = float64(rng.Intn(7))       // 7 distinct values
	}
	streams["normal"] = normal
	streams["uniform"] = uniform
	streams["lognormal"] = skewed
	streams["plateau"] = plateau
	return streams
}

var probeList = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// rankError returns the distance (in ranks) between the returned value's
// true rank range in the sorted sample and the target rank ⌈q·n⌉.
func rankError(sorted []float64, v float64, q float64) int {
	n := len(sorted)
	target := int(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	// Ranks occupied by v: (first index of v, last index of v] in 1-based
	// rank terms.
	lo := sort.SearchFloat64s(sorted, v) + 1
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if lo > hi {
		// v is not in the sample at all: measure from the insertion point.
		hi = lo
	}
	switch {
	case target < lo:
		return lo - target
	case target > hi:
		return target - hi
	default:
		return 0
	}
}

// TestSketchAccuracy is the acceptance bound: on ≥10k-member synthetic
// ensembles, every probed quantile is within the documented ε rank error of
// the exact sorted-sample quantile.
func TestSketchAccuracy(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(1))
	for name, stream := range sampleStreams(rng, n) {
		for _, eps := range []float64{0.05, 0.01, 0.005} {
			s := New(eps)
			for _, v := range stream {
				s.Update(v)
			}
			if s.N() != n {
				t.Fatalf("%s eps=%v: N = %d, want %d", name, eps, s.N(), n)
			}
			sorted := append([]float64(nil), stream...)
			sort.Float64s(sorted)
			allowed := int(math.Ceil(eps * float64(n)))
			for _, q := range probeList {
				got := s.Query(q)
				if e := rankError(sorted, got, q); e > allowed {
					t.Errorf("%s eps=%v q=%v: rank error %d exceeds εn = %d (got value %v)",
						name, eps, q, e, allowed, got)
				}
			}
			if s.Query(0) != sorted[0] {
				t.Errorf("%s eps=%v: Query(0) = %v, want exact min %v", name, eps, s.Query(0), sorted[0])
			}
			if s.Query(1) != sorted[n-1] {
				t.Errorf("%s eps=%v: Query(1) = %v, want exact max %v", name, eps, s.Query(1), sorted[n-1])
			}
		}
	}
}

// TestSketchMemoryBounded pins the O(1/ε) memory claim: the retained tuple
// count stays within a small constant times 1/ε and grows at most
// logarithmically while n grows 16-fold — never linearly.
func TestSketchMemoryBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, eps := range []float64{0.02, 0.01, 0.005} {
		count := func(n int) int {
			s := New(eps)
			for i := 0; i < n; i++ {
				s.Update(rng.NormFloat64())
			}
			return s.TupleCount()
		}
		small, large := count(2000), count(32000)
		cap := int(6.0 / eps)
		if large > cap {
			t.Errorf("eps=%v: %d tuples at n=32000 exceeds 6/ε = %d", eps, large, cap)
		}
		if large > 4*small {
			t.Errorf("eps=%v: tuples grew %d -> %d while n grew 16x: not O(1/ε)", eps, small, large)
		}
		// Raw storage of 32000 samples would be 256 kB; the sketch must be
		// far below that.
		s := New(eps)
		for i := 0; i < 32000; i++ {
			s.Update(rng.NormFloat64())
		}
		if s.MemoryBytes() >= 32000*8/4 {
			t.Errorf("eps=%v: sketch memory %d bytes is not clearly sublinear in n", eps, s.MemoryBytes())
		}
	}
}

// TestSketchDeterminism: the sketch is a pure function of its operation
// sequence — the property the sharded fold engine relies on for bitwise
// FoldWorkers-invariant results.
func TestSketchDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	stream := sampleStreams(rng, 5000)["uniform"]
	encode := func() []byte {
		s := New(0.01)
		for _, v := range stream {
			s.Update(v)
		}
		w := enc.NewWriter(1024)
		s.Encode(w)
		return append([]byte(nil), w.Bytes()...)
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical update sequences produced different sketch state")
	}
}

func TestSketchEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(0.02)
	for i := 0; i < 3000; i++ {
		s.Update(rng.NormFloat64())
	}
	w := enc.NewWriter(1024)
	s.Encode(w)

	var d Sketch
	r := enc.NewReader(w.Bytes())
	d.Decode(r)
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if d.N() != s.N() || d.Epsilon() != s.Epsilon() || d.TupleCount() != s.TupleCount() {
		t.Fatalf("decoded shape %d/%v/%d vs %d/%v/%d",
			d.N(), d.Epsilon(), d.TupleCount(), s.N(), s.Epsilon(), s.TupleCount())
	}
	for _, q := range probeList {
		if d.Query(q) != s.Query(q) {
			t.Fatalf("q=%v: decoded %v vs %v", q, d.Query(q), s.Query(q))
		}
	}
	w2 := enc.NewWriter(1024)
	d.Encode(w2)
	if !bytes.Equal(w.Bytes(), w2.Bytes()) {
		t.Fatal("re-encode is not byte-identical")
	}
	// The restored sketch keeps accepting updates.
	d.Update(1e9)
	if d.Query(1) != 1e9 {
		t.Fatal("restored sketch cannot continue")
	}
	// Truncated state is reported through the reader error.
	var tr Sketch
	short := enc.NewReader(w.Bytes()[:w.Len()/2])
	tr.Decode(short)
	if short.Err() == nil {
		t.Fatal("truncated sketch decoded without error")
	}
}

// TestSketchDecodeRejectsInconsistentState: byte streams that parse but
// encode impossible sketches (samples without tuples, negative counts) are
// decode errors, never a later Query panic.
func TestSketchDecodeRejectsInconsistentState(t *testing.T) {
	cases := map[string]func(w *enc.Writer){
		"n>0 no tuples": func(w *enc.Writer) { w.F64(0.01); w.I64(5); w.Int(0) },
		"negative n":    func(w *enc.Writer) { w.F64(0.01); w.I64(-1); w.Int(0) },
		"tuples no n": func(w *enc.Writer) {
			w.F64(0.01)
			w.I64(0)
			w.Int(1)
			w.F64(1)
			w.I64(1)
			w.I64(0)
		},
	}
	for name, write := range cases {
		w := enc.NewWriter(64)
		write(w)
		var s Sketch
		r := enc.NewReader(w.Bytes())
		s.Decode(r)
		if r.Err() == nil {
			t.Errorf("%s: inconsistent sketch decoded without error", name)
		}
	}
}

func TestSketchEdgeCases(t *testing.T) {
	s := New(0)
	if s.Epsilon() != DefaultEpsilon {
		t.Fatalf("eps default: %v", s.Epsilon())
	}
	if New(3).Epsilon() != 0.5 {
		t.Fatal("eps not clamped to 0.5")
	}
	if s.Query(0.5) != 0 {
		t.Fatal("empty sketch should report 0")
	}
	s.Update(math.NaN())
	if s.N() != 0 {
		t.Fatal("NaN was counted")
	}
	s.Update(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Query(q); got != 42 {
			t.Fatalf("single-sample Query(%v) = %v", q, got)
		}
	}
	// One value per flush boundary: exercise n=1..3·bufCap around flushes.
	tiny := New(0.25)
	for i := 1; i <= 8; i++ {
		tiny.Update(float64(i))
		if got := tiny.Query(1); got != float64(i) {
			t.Fatalf("after %d updates Query(1) = %v", i, got)
		}
		if got := tiny.Query(0); got != 1 {
			t.Fatalf("after %d updates Query(0) = %v", i, got)
		}
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList("0.05, 0.5,0.95")
	if err != nil || len(got) != 3 || got[0] != 0.05 || got[1] != 0.5 || got[2] != 0.95 {
		t.Fatalf("ParseList: %v, %v", got, err)
	}
	if got, err := ParseList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	for _, bad := range []string{"0.5,", "abc", "0", "1", "-0.1", "0.5x"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q) accepted", bad)
		}
	}
}
