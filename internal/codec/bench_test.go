package codec

import "testing"

// The codec benchmarks run at the codec_tcp block shape: 4 batched steps ×
// 6 pick-freeze members × 8,192 cells (one server process's half of a
// 16,384-cell field), after DeltaXOR. MB/s counts raw field bytes, and the
// compress benchmarks report the block's compression ratio (raw/comp). CI
// gates only the allocations of the three float32-widened ones: steady state
// must allocate nothing. The FullPrecision pair runs the same shape with
// the values left at full float64 precision, where the low mantissa planes
// carry data too.
const benchSteps, benchFields, benchCells = 4, 6, 8192

func BenchmarkCompress(b *testing.B) {
	benchCompress(b, linfieldWords(benchSteps, benchFields, benchCells))
}

func BenchmarkDecompress(b *testing.B) {
	benchDecompress(b, linfieldWords(benchSteps, benchFields, benchCells))
}

func BenchmarkCompressFullPrecision(b *testing.B) {
	benchCompress(b, fullPrecisionWords(benchSteps, benchFields, benchCells))
}

func BenchmarkDecompressFullPrecision(b *testing.B) {
	benchDecompress(b, fullPrecisionWords(benchSteps, benchFields, benchCells))
}

func BenchmarkValidate(b *testing.B) {
	words := linfieldWords(benchSteps, benchFields, benchCells)
	var e Encoder
	comp := e.Compress(nil, words)
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for b.Loop() {
		if err := Validate(comp, 8*len(words)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCompress(b *testing.B, words []uint64) {
	var e Encoder
	dst := e.Compress(nil, words)
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for b.Loop() {
		dst = e.Compress(dst[:0], words)
	}
	b.ReportMetric(float64(8*len(words))/float64(len(dst)), "raw/comp")
}

func benchDecompress(b *testing.B, words []uint64) {
	var e Encoder
	comp := e.Compress(nil, words)
	out := make([]uint64, len(words))
	var d Decoder
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for b.Loop() {
		if err := d.Decompress(out, comp); err != nil {
			b.Fatal(err)
		}
	}
}
