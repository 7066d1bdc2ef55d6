package codec

import "testing"

// The codec benchmarks run at the codec_tcp block shape: 4 batched steps ×
// 6 pick-freeze members × 8,192 cells (one server process's half of a
// 16,384-cell field), after DeltaXOR. MB/s counts raw field bytes. CI gates
// only their allocations: steady state must allocate nothing.
const benchSteps, benchFields, benchCells = 4, 6, 8192

func BenchmarkCompress(b *testing.B) {
	words := linfieldWords(benchSteps, benchFields, benchCells)
	var e Encoder
	dst := e.Compress(nil, words)
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for b.Loop() {
		dst = e.Compress(dst[:0], words)
	}
}

func BenchmarkDecompress(b *testing.B) {
	words := linfieldWords(benchSteps, benchFields, benchCells)
	var e Encoder
	comp := e.Compress(nil, words)
	out := make([]uint64, len(words))
	var d Decoder
	if err := d.Decompress(out, comp); err != nil { // size the scratch
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(words)))
	b.ReportAllocs()
	for b.Loop() {
		if err := d.Decompress(out, comp); err != nil {
			b.Fatal(err)
		}
	}
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
