package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/metrics"
	"strings"
	"testing"

	"melissa/internal/codec"
	"melissa/internal/enc"
	"melissa/internal/mesh"
)

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls. Small allocations are accounted a span at a time, so a single
// run may be off by tens of KiB; large ones are exact. It reads the
// runtime's cumulative allocation metric, which, unlike ReadMemStats, does
// not stop the world, so every fuzz exec can afford it.
func allocBytes(runs int, f func()) int {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	for i := 0; i < runs; i++ {
		f()
	}
	metrics.Read(sample)
	return int((sample[0].Value.Uint64() - before) / uint64(runs))
}

// countBomb is a header whose element count the payload cannot hold: the
// tag, nFixed 8-byte fields, a U32 count, then pad zero bytes.
func countBomb(typ MsgType, nFixed int, count uint32, pad int) []byte {
	b := make([]byte, 1+8*nFixed, 1+8*nFixed+4+pad)
	b[0] = byte(typ)
	b = binary.LittleEndian.AppendUint32(b, count)
	return append(b, make([]byte, pad)...)
}

// reportBomb is a Report head (rank, epoch, seq, sync) whose Started count
// the payload cannot hold.
func reportBomb() []byte {
	b := countBomb(TypeReport, 3, 0, 0)[:1+3*8]
	b = append(b, 0) // sync
	return binary.LittleEndian.AppendUint32(b, 1<<24-1)
}

// countBombs are tiny control frames whose counts once sized allocations of
// up to 134 MB before the decoder noticed the payload was 13 bytes long.
// The batch bomb carries its header pad, so the batch view reaches its
// count check too.
var countBombs = map[string][]byte{
	"report":  reportBomb(),                                  // 30 bytes
	"batch":   countBomb(TypeDataBatch, 3, 1<<20-1, dataPad), // 32 bytes
	"welcome": countBomb(TypeWelcome, 3, 1<<20-1, 0),         // 29 bytes
}

// fieldlessData is a 40-byte Data frame with no fields over 2^62 cells. It
// once parsed, so a reader sizing a buffer from Cells() could be made to
// allocate without bound.
func fieldlessData() []byte {
	b := []byte{byte(TypeData)}
	for _, v := range []uint64{1, 2, 0, 1 << 62} { // group, step, lo, hi
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, 0) // nf
	return append(b, make([]byte, dataPad)...)
}

func TestViewsRejectFieldlessData(t *testing.T) {
	frame := fieldlessData()
	var dv DataView
	if err := dv.Parse(frame); err == nil {
		t.Errorf("DataView parsed a %d-byte frame with no fields over %d cells", len(frame), dv.Cells())
	}
	var bv DataBatchView
	if err := bv.ParseRaw(frame); err == nil {
		t.Errorf("DataBatchView.ParseRaw parsed a %d-byte frame with no fields over %d cells", len(frame), bv.Cells())
	}
	if _, err := Decode(frame); err == nil {
		t.Error("Decode accepted a Data frame with no fields")
	}
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
		Encode(&Report{ProcRank: 1, Seq: 4, Sync: SyncFirst, Started: []int{3}, Finished: []int{1, 2}, FinishedCount: 2, TimedOut: []int{3}, MaxCIWidth: 0.5, Messages: 7}),
		{6, 1}, // the retired stop tag
		Encode(&Resume{GroupID: 3, ReplyAddr: "mem://2"}),
		Encode(&ResumeAck{ProcRank: 1, GroupID: 3, LastStep: 2, DurableStep: 1}),
		Encode(&CheckpointReq{GroupID: 3}),
	}
	for _, b := range countBombs {
		seeds = append(seeds, b)
	}
	seeds = append(seeds, fieldlessData())
	for _, sf := range slotFrames() {
		seeds = append(seeds, sf.slots)
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
	return append(seeds, raggedFrames()...)
}

// raggedFrames are a Data frame whose second field is shorter than its cell
// range and a DataBatch whose second step carries one field fewer. The
// views reject both; a Decode with a parser of its own once accepted them.
func raggedFrames() [][]byte {
	d := viewTestData(8, 3)
	d.Fields[1] = d.Fields[1][:5]
	b := viewTestBatch(2, 8, 3)
	b.Steps[1].Fields = b.Steps[1].Fields[:2]
	return [][]byte{Encode(d), Encode(b)}
}

func TestDecodeRejectsRaggedFrames(t *testing.T) {
	for _, frame := range raggedFrames() {
		if m, err := Decode(frame); err == nil {
			t.Errorf("Decode accepted a ragged %T", m)
		}
	}
}

// slotFrame is one bulk frame laid out the way a sender whose members write
// their own fields lays it out (heads and slots first, floats later, a batch
// step count set last), beside the one-call encoding of the same message.
type slotFrame struct {
	name         string
	slots, whole []byte
}

// slotFrames builds an unbatched Data frame, a full and a partial final
// DataBatch, and codec frames of one and of three ranges.
func slotFrames() []slotFrame {
	var out []slotFrame
	for _, ns := range []int{3, 2} { // a full batch of 3, then a partial one
		m := testBatch(5, 8, 20, ns, 3)
		w := enc.NewWriter(0)
		AppendBatchHead(w, m.GroupID, m.CellLo, m.CellHi, 0)
		runs := make([][]int, ns)
		for s, st := range m.Steps {
			AppendStepHead(w, st.Timestep, len(st.Fields))
			for range st.Fields {
				runs[s] = append(runs[s], AppendFieldSlot(w, m.CellHi-m.CellLo))
			}
		}
		SetBatchSteps(w.Bytes(), ns)
		for s, st := range m.Steps {
			for f, field := range st.Fields {
				enc.PutF64s(w.Bytes()[runs[s][f]:], field)
			}
		}
		out = append(out, slotFrame{fmt.Sprintf("batch-%d", ns), w.Bytes(), Encode(m)})
		if ns == 2 {
			st := m.Steps[0]
			d := &Data{GroupID: m.GroupID, Timestep: st.Timestep, CellLo: m.CellLo, CellHi: m.CellHi, Fields: st.Fields}
			w := enc.NewWriter(0)
			AppendDataHead(w, d.GroupID, d.Timestep, d.CellLo, d.CellHi, len(d.Fields))
			var offs []int
			for range d.Fields {
				offs = append(offs, AppendFieldSlot(w, d.CellHi-d.CellLo))
			}
			for f, field := range d.Fields {
				enc.PutF64s(w.Bytes()[offs[f]:], field)
			}
			out = append(out, slotFrame{"data", w.Bytes(), Encode(d)})
		}
	}
	for _, lens := range [][]int{{12}, {4, 5, 3}} {
		m := testBatch(6, 8, 20, 2, 3)
		var b WordBatch
		b.RangeLens = lens
		b.Reset(m.GroupID, m.CellLo, m.CellHi, 3, 4) // room for 4 steps, 2 used
		for s := len(m.Steps) - 1; s >= 0; s-- {
			for f, field := range m.Steps[s].Fields {
				b.Put(s, f, field)
			}
		}
		for _, st := range m.Steps {
			b.Timesteps = append(b.Timesteps, st.Timestep)
		}
		var bc BatchCompressor
		w := enc.NewWriter(0)
		bc.EncodeWords(w, &b)
		whole := enc.NewWriter(0)
		bc.EncodeTo(whole, m, lens)
		out = append(out, slotFrame{fmt.Sprintf("codec-%d-ranges", len(lens)), w.Bytes(), whole.Bytes()})
	}
	return out
}

// A frame built slot by slot is the frame EncodeTo makes of the same
// message: the layout is defined once.
func TestSlotFramesMatchEncode(t *testing.T) {
	for _, sf := range slotFrames() {
		if !bytes.Equal(sf.slots, sf.whole) {
			t.Errorf("%s: slot-built frame differs from the one-call encoding", sf.name)
		}
	}
}

// decoded is what every decoder a receiver may apply made of one frame:
// Decode's message, and each view that parsed (nil where one did not). rv
// is the raw view the server reads, parsed with ParseRaw.
type decoded struct {
	msg    any
	err    error
	dv     *DataView
	bv, rv *DataBatchView
	cv     *DataBatchCView
}

// decodeAll runs every decoder a receiver may apply to bytes off the wire,
// with fresh views as a cold receiver would.
func decodeAll(payload []byte) decoded {
	d := decoded{dv: &DataView{}, bv: &DataBatchView{}, rv: &DataBatchView{}, cv: &DataBatchCView{}}
	d.msg, d.err = Decode(payload)
	if d.dv.Parse(payload) != nil {
		d.dv = nil
	}
	if d.bv.Parse(payload) != nil {
		d.bv = nil
	}
	if d.rv.ParseRaw(payload) != nil {
		d.rv = nil
	}
	if d.cv.Parse(payload) != nil {
		d.cv = nil
	}
	return d
}

// FuzzWireDecode feeds arbitrary bytes to wire.Decode and the bulk views,
// then decodes every range of a view that parsed. No input may panic, and
// the decoders may allocate at most 64 bytes per byte the frame carries
// plus 64 KiB. A frame carries its own length, or for a codec frame that
// parsed, its decompressed size (the codec expands up to
// codec.MaxExpansion-fold). Decode of a bulk frame succeeds exactly when
// that tag's view parses, and then holds the bits the view reads.
func FuzzWireDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var d decoded
		got := allocBytes(1, func() { d = decodeAll(payload) })
		carried := len(payload)
		if d.cv != nil {
			carried = max(carried, 8*d.cv.NumSteps()*d.cv.NumFields()*d.cv.Cells())
		}
		if limit := 64*carried + 64<<10; got > limit {
			// One run can be charged for a span filled before it; confirm
			// over many.
			if got = allocBytes(32, func() { decodeAll(payload) }); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(payload), got, limit)
			}
		}

		typ := PayloadType(payload)
		if (d.dv != nil) != (typ == TypeData && d.rv != nil) ||
			(d.bv != nil) != (typ == TypeDataBatch && d.rv != nil) {
			t.Fatalf("tag %d: data view %v, batch view %v, raw view %v disagree",
				typ, d.dv != nil, d.bv != nil, d.rv != nil)
		}
		switch typ {
		case TypeData, TypeDataBatch:
			if (d.err == nil) != (d.rv != nil) {
				t.Fatalf("tag %d: Decode error %v, raw view parsed %v", typ, d.err, d.rv != nil)
			}
		case TypeDataBatchC:
			if (d.err == nil) != (d.cv != nil) {
				t.Fatalf("codec frame: Decode error %v, codec view parsed %v", d.err, d.cv != nil)
			}
		}

		if v := d.rv; v != nil {
			head := dataBatchHeaderSize
			if typ == TypeData {
				head = dataHeaderSize
			}
			if !zeroBytes(payload[head-dataPad : head]) {
				t.Fatalf("tag %d: raw view parsed a non-zero header pad", typ)
			}
			steps := bulkSteps(d.msg)
			var dst []float64
			for s := 0; s < v.NumSteps(); s++ {
				for fi := 0; fi < v.NumFields(); fi++ {
					if dst == nil {
						dst = make([]float64, v.Cells()) // a field bounds the cell range
					}
					v.DecodeFieldRange(s, fi, 0, v.Cells(), dst)
					checkLent(t, v.FieldRange(s, fi, 0, v.Cells()), dst)
					checkBits(t, steps[s].Fields[fi], dst)
				}
			}
		}
		if v := d.cv; v != nil {
			steps := bulkSteps(d.msg)
			var dec codec.Decoder
			for r := 0; r < v.NumRanges(); r++ {
				words := make([]uint64, v.RangeWords(r))
				if err := v.DecompressRange(r, &dec, words); err != nil {
					t.Fatalf("range %d of a parsed frame: %v", r, err)
				}
				rlo, rhi := v.RangeBounds(r)
				dst := make([]float64, rhi-rlo)
				for s := 0; s < v.NumSteps(); s++ {
					for fi := 0; fi < v.NumFields(); fi++ {
						at := (s*v.NumFields() + fi) * (rhi - rlo)
						codec.WordsToFloat64s(dst, words[at:at+rhi-rlo])
						checkBits(t, steps[s].Fields[fi][rlo:rhi], dst)
					}
				}
			}
		}
	})
}

// bulkSteps returns the steps of a decoded bulk message, a Data as one.
func bulkSteps(msg any) []DataStep {
	if m, ok := msg.(*Data); ok {
		return []DataStep{{Timestep: m.Timestep, Fields: m.Fields}}
	}
	return msg.(*DataBatch).Steps
}

// checkBits fails t unless got holds exactly the bits of want.
func checkBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// checkLent fails t unless a range lent in place, if any, holds the bits
// its copy holds.
func checkLent(t *testing.T, lent, copied []float64) {
	t.Helper()
	if lent != nil {
		checkBits(t, lent, copied)
	}
}
