package wire

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"melissa/internal/codec"
	"melissa/internal/enc"
	"melissa/internal/mesh"
)

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls. Small allocations are accounted a span at a time, so a single
// run may be off by tens of KiB; large ones are exact.
func allocBytes(runs int, f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

// countBomb is a header whose element count the payload cannot hold: the
// tag, nFixed 8-byte fields, a U32 count, then pad zero bytes.
func countBomb(typ MsgType, nFixed int, count uint32, pad int) []byte {
	b := make([]byte, 1+8*nFixed, 1+8*nFixed+4+pad)
	b[0] = byte(typ)
	b = binary.LittleEndian.AppendUint32(b, count)
	return append(b, make([]byte, pad)...)
}

// countBombs are tiny control frames whose counts once sized allocations of
// up to 134 MB before the decoder noticed the payload was 13 bytes long.
// The batch bomb carries its header pad, so the batch view reaches its
// count check too.
var countBombs = map[string][]byte{
	"report":  countBomb(TypeReport, 1, 1<<24-1, 0),          // 13 bytes
	"batch":   countBomb(TypeDataBatch, 3, 1<<20-1, dataPad), // 32 bytes
	"welcome": countBomb(TypeWelcome, 3, 1<<20-1, 0),         // 29 bytes
}

func TestDecodeCountBombsAllocateLittle(t *testing.T) {
	for name, payload := range countBombs {
		if _, err := Decode(payload); err == nil || !strings.Contains(err.Error(), "count") {
			t.Errorf("%s: %d-byte frame: %v, want a count error", name, len(payload), err)
		}
		if got := allocBytes(20, func() { Decode(payload) }); got > 64<<10 {
			t.Errorf("%s: decoding a %d-byte frame allocated %d bytes", name, len(payload), got)
		}
	}
}

// fuzzSeeds is one encoded message of every type, the codec frame included,
// one frame per retired tag, plus the count bombs.
func fuzzSeeds() [][]byte {
	batch := testBatch(4, 8, 40, 3, 4)
	var bc BatchCompressor
	w := enc.NewWriter(0)
	bc.EncodeTo(w, batch, []int{12, 20})
	data := Encode(&Data{GroupID: 1, Timestep: 2, CellLo: 0, CellHi: 3, Fields: [][]float64{{1, 2, 3}, {4, 5, 6}}})
	raw := Encode(batch)
	seeds := [][]byte{
		Encode(&Hello{GroupID: 1, SimRanks: 2, ReplyAddr: "mem://1", Caps: CapWireCodec, Resume: true}),
		Encode(&Welcome{Timesteps: 5, Cells: 64, P: 2, ServerAddr: []string{"a", "b"},
			Partitions: []mesh.Partition{{Lo: 0, Hi: 32}, {Lo: 32, Hi: 64}}, Caps: CapWireCodec,
			FoldShards: []int{2, 2}, LastStep: 3, DurableStep: NoDurability}),
		data,
		raw,
		w.Bytes(),
		{4, 's', 0, 0, 0}, // the retired heartbeat tag
		Encode(&Report{ProcRank: 1, Running: []int{3}, Finished: []int{1, 2}, TimedOut: []int{3}, MaxCIWidth: 0.5, Messages: 7}),
		{6, 1}, // the retired stop tag
		Encode(&Resume{GroupID: 3, ReplyAddr: "mem://2"}),
		Encode(&ResumeAck{ProcRank: 1, GroupID: 3, LastStep: 2, DurableStep: 1}),
		Encode(&CheckpointReq{GroupID: 3}),
	}
	for _, b := range countBombs {
		seeds = append(seeds, b)
	}
	// Padded frames with one pad byte set, which every decoder must reject:
	// the Data header pad, the batch header pad and a batch step pad.
	for _, bad := range []struct {
		frame []byte
		at    int
	}{{data, dataHeaderSize - 1}, {raw, dataBatchHeaderSize - 1}, {raw, dataBatchHeaderSize + stepHeaderSize - 1}} {
		b := append([]byte(nil), bad.frame...)
		b[bad.at] = 0x80
		seeds = append(seeds, b)
	}
	return seeds
}

// decodeAll runs every decoder a receiver may apply to bytes off the wire,
// with fresh views as a cold receiver would, and returns the views that
// parsed.
func decodeAll(payload []byte) (dv *DataView, bv *DataBatchView, cv *DataBatchCView) {
	Decode(payload)
	dv, bv, cv = &DataView{}, &DataBatchView{}, &DataBatchCView{}
	if dv.Parse(payload) != nil {
		dv = nil
	}
	if bv.Parse(payload) != nil {
		bv = nil
	}
	if cv.Parse(payload) != nil {
		cv = nil
	}
	return dv, bv, cv
}

// FuzzWireDecode feeds arbitrary bytes to wire.Decode and the three bulk
// views, then decodes every range of a view that parsed. No input may panic,
// and the decoders may allocate at most 64 bytes per byte the frame carries
// plus 64 KiB. A frame carries its own length, or for a codec frame that
// parsed, its decompressed size (the codec expands up to
// codec.MaxExpansion-fold).
func FuzzWireDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var dv *DataView
		var bv *DataBatchView
		var cv *DataBatchCView
		got := allocBytes(1, func() { dv, bv, cv = decodeAll(payload) })
		carried := len(payload)
		if cv != nil {
			carried = max(carried, 8*cv.NumSteps()*cv.NumFields()*cv.Cells())
		}
		if limit := 64*carried + 64<<10; got > limit {
			// One run can be charged for a span filled before it; confirm
			// over many.
			if got = allocBytes(32, func() { decodeAll(payload) }); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
			}
		}

		if dv != nil {
			if !zeroBytes(payload[dataHeaderSize-dataPad : dataHeaderSize]) {
				t.Fatal("data view parsed a non-zero header pad")
			}
			for fi := 0; fi < dv.NumFields(); fi++ {
				dst := make([]float64, dv.Cells()) // a field bounds the cell range
				dv.DecodeFieldRange(fi, 0, dv.Cells(), dst)
				checkLent(t, dv.FieldRange(fi, 0, dv.Cells()), dst)
			}
		}
		if bv != nil {
			if !zeroBytes(payload[dataBatchHeaderSize-dataPad : dataBatchHeaderSize]) {
				t.Fatal("batch view parsed a non-zero header pad")
			}
			dst := make([]float64, bv.Cells())
			for s := 0; s < bv.NumSteps(); s++ {
				for fi := 0; fi < bv.NumFields(); fi++ {
					bv.DecodeFieldRange(s, fi, 0, bv.Cells(), dst)
					checkLent(t, bv.FieldRange(s, fi, 0, bv.Cells()), dst)
				}
			}
		}
		if cv != nil {
			var d codec.Decoder
			for r := 0; r < cv.NumRanges(); r++ {
				if err := cv.DecompressRange(r, &d, make([]uint64, cv.RangeWords(r))); err != nil {
					t.Fatalf("range %d of a parsed frame: %v", r, err)
				}
			}
		}
	})
}

// checkLent fails t unless a range lent in place, if any, holds the bits
// its copy holds.
func checkLent(t *testing.T, lent, copied []float64) {
	t.Helper()
	if lent == nil {
		return
	}
	for i := range copied {
		if math.Float64bits(lent[i]) != math.Float64bits(copied[i]) {
			t.Fatalf("lent cell %d = %v, copied %v", i, lent[i], copied[i])
		}
	}
}
