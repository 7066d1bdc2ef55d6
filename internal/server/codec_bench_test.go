package server

import (
	"math"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/transport"
)

// benchSimCorrelated emits the compressible field shape the codec is built
// for: a smooth spatial profile computed at single precision and widened to
// the float64 wire format (the common case for production CFD codes writing
// f32 state into an f64 protocol). The low mantissa bytes are exactly zero
// and members of a group differ smoothly, which the delta-XOR + plane
// entropy pass turns into long zero runs.
func benchSimCorrelated(cells, timesteps int) client.SimFunc {
	return func(row []float64, emit func(step int, field []float64) bool) {
		field := make([]float64, cells)
		for t := 0; t < timesteps; t++ {
			for c := range field {
				x := float64(c) / float64(cells)
				v := math.Sin(row[0]+2*math.Pi*x) + row[1]*float64(t+1)*0.1 + row[2]*x
				field[c] = float64(float32(v))
			}
			if !emit(t, field) {
				return
			}
		}
	}
}

// BenchmarkServerIngestCodec is the wire-codec counterpart of
// BenchmarkServerIngest: the same end-to-end path (handshake, two-stage
// transfer, shard decode, fold) on the correlated fixture, raw framing vs
// negotiated compression. The wireB/group metric is the payload traffic one
// group actually put on the wire — CI asserts it undercuts the raw framing, and
// `bash bench/run.sh -workload codec_tcp` reports it at study scale as
// wire.ratio; the rawB/group metric is what the same content costs
// uncompressed. The ranks3 variants send from three sim ranks, so both
// processes assemble every (group, timestep) from two pieces.
func BenchmarkServerIngestCodec(b *testing.B) {
	for _, bc := range []struct {
		name        string
		codec       bool
		foldWorkers int
		batchSteps  int
		simRanks    int
	}{
		{"raw-fold4-batch1", false, 4, 1, 2},
		{"codec-fold4-batch1", true, 4, 1, 2},
		{"raw-fold4-batch8", false, 4, 8, 2},
		{"codec-fold4-batch8", true, 4, 8, 2},
		{"raw-ranks3-fold4-batch8", false, 4, 8, 3},
		{"codec-ranks3-fold4-batch8", true, 4, 8, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchServerIngestCodec(b, bc.codec, bc.foldWorkers, bc.batchSteps, bc.simRanks)
		})
	}
}

func benchServerIngestCodec(b *testing.B, codecOn bool, foldWorkers, batchSteps, simRanks int) {
	const cells, timesteps, p = 4096, 8, 6
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, 1<<20)
	sim := benchSimCorrelated(cells, timesteps)

	s, err := New(Config{
		Procs: 2, FoldWorkers: foldWorkers, Cells: cells, Timesteps: timesteps, P: p,
		Network: net, ReportInterval: time.Hour, WireCodec: codecOn,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Stop(false)

	b.SetBytes(int64(8 * cells * (p + 2) * timesteps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: i, SimRanks: simRanks, BatchSteps: batchSteps, WireCodec: codecOn},
			Rows:        design.GroupRows(i % design.N()),
			Sim:         sim,
		}); err != nil {
			b.Fatal(err)
		}
	}
	want := int64((b.N) * timesteps * 2)
	for s.TotalFolds() < want {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	ws := s.Result().WireStats()
	b.ReportMetric(float64(ws.WireBytes)/float64(b.N), "wireB/group")
	b.ReportMetric(float64(ws.RawBytes)/float64(b.N), "rawB/group")
}
