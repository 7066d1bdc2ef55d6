package enc

import "testing"

// benchFloats is one 64 KiB run: a shard's share of a field, small enough
// to stay in cache so the benchmarks time the byte movement, not DRAM.
func benchFloats() []float64 {
	vs := make([]float64, 8192)
	for i := range vs {
		vs[i] = float64(i) + 0.25
	}
	return vs
}

// BenchmarkF64Raw times appending a float run to a writer: the client's wire
// encode and the checkpoint's record encode.
func BenchmarkF64Raw(b *testing.B) {
	vs := benchFloats()
	w := NewWriter(8 * len(vs))
	b.SetBytes(int64(8 * len(vs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.F64Raw(vs)
	}
}

// BenchmarkF64RawInto times reading a float run back: the checkpoint
// restore.
func BenchmarkF64RawInto(b *testing.B) {
	vs := benchFloats()
	w := NewWriter(8 * len(vs))
	w.F64Raw(vs)
	dst := make([]float64, len(vs))
	b.SetBytes(int64(8 * len(vs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewReader(w.Bytes()).F64RawInto(dst)
	}
}
