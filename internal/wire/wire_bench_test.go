package wire

import "testing"

// The Data message dominates traffic: 8 fields per cell range per timestep.

func benchData(cells int) *Data {
	fields := make([][]float64, 8)
	for i := range fields {
		f := make([]float64, cells)
		for c := range f {
			f[c] = float64(i*cells + c)
		}
		fields[i] = f
	}
	return &Data{GroupID: 1, Timestep: 50, CellLo: 0, CellHi: cells, Fields: fields}
}

func BenchmarkDataEncode10kCells(b *testing.B) {
	d := benchData(10000)
	b.SetBytes(DataSizeBytes(8, 10000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(d)
	}
}

func BenchmarkDataDecode10kCells(b *testing.B) {
	payload := Encode(benchData(10000))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataViewParse10kCells measures the route-stage cost of the lazy
// ingest path: header validation and per-field offset recording only, no
// float decoding. Compare against BenchmarkDataDecode10kCells, which decodes
// every float up front.
func BenchmarkDataViewParse10kCells(b *testing.B) {
	payload := Encode(benchData(10000))
	var v DataView
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Parse(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataViewDecodeRange10kCells measures one shard worker's slice of
// the decode: parse once, then convert a quarter of the cells per field —
// the per-worker cost after the decode work is spread across a 4-wide pool.
func BenchmarkDataViewDecodeRange10kCells(b *testing.B) {
	payload := Encode(benchData(10000))
	var v DataView
	if err := v.Parse(payload); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 2500)
	b.SetBytes(int64(len(payload)) / 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < v.NumFields(); f++ {
			v.DecodeFieldRange(f, 2500, 5000, dst)
		}
	}
}

// BenchmarkDataBatchViewParse8Steps is the batched route-stage cost.
func BenchmarkDataBatchViewParse8Steps(b *testing.B) {
	payload := Encode(benchBatch(8, 8, 1250))
	var v DataBatchView
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Parse(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataBatchEncode8Steps encodes 8 timesteps in one message —
// compare bytes/op and ns/op against 8× the single-step encode.
func BenchmarkDataBatchEncode8Steps(b *testing.B) {
	batch := benchBatch(8, 8, 1250) // same payload volume as one 10k-cell Data
	b.SetBytes(DataBatchSizeBytes(8, 8, 1250))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(batch)
	}
}

func BenchmarkHelloRoundTrip(b *testing.B) {
	h := &Hello{GroupID: 42, SimRanks: 64, ReplyAddr: "127.0.0.1:55555"}
	for i := 0; i < b.N; i++ {
		if _, err := Decode(Encode(h)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFieldRange times a shard worker copying every field of a
// Data frame out of the payload: the server's fallback decode and the
// assembled path.
func BenchmarkDecodeFieldRange(b *testing.B) {
	payload := Encode(benchData(8192))
	var v DataView
	if err := v.Parse(payload); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, v.Cells())
	b.SetBytes(int64(8 * v.Cells() * v.NumFields()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < v.NumFields(); f++ {
			v.DecodeFieldRange(f, 0, v.Cells(), dst)
		}
	}
}
