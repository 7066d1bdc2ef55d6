package wire

import (
	"fmt"

	"melissa/internal/codec"
	"melissa/internal/enc"
)

// Compressed bulk framing (TypeDataBatchC). The frame carries the same
// logical content as a DataBatch — one group, one cell range, ns timesteps of
// nf fields — but the float payload is split into nr cell sub-ranges, each
// delta-XOR'd and entropy-coded independently (package codec):
//
//	u8  tag (TypeDataBatchC)
//	i64 group
//	i64 cellLo
//	i64 cellHi
//	u32 ns                  number of timesteps
//	ns × i64 timestep       per batch entry
//	u32 nf                  fields per step (uniform)
//	u32 nr                  number of cell sub-ranges
//	nr × { u32 cells, u32 compLen }
//	nr × compressed block   (compLen bytes each, in range order)
//
// The sub-ranges partition [cellLo, cellHi) in order; block r encodes the
// [step][field][cell] words of its cells. Senders cut ranges on the
// receiving process's fold-shard boundaries (Welcome.FoldShards), so each
// fold worker decompresses exactly its own block(s) in parallel — the codec
// stage inherits the shard parallelism of the decode stage instead of
// serializing in front of it.
//
// Like the raw views, the inbox-side Parse touches no float data: it walks
// the header, checks the range table against the cell range, and runs
// codec.Validate over each block — a token scan that reads only token bytes
// (one byte per up-to-128-byte run, literals are skipped, nothing is
// written), so a frame accepted by Parse can never fail to decompress and
// the workers' decode stage stays infallible. Malformed frames are rejected
// wholesale with one error, exactly like the raw rectangular validation.

// dataBatchCFixedSize is the frame prefix before the timestep list: tag,
// group, cellLo, cellHi, ns.
const dataBatchCFixedSize = 1 + 3*8 + 4

// rangeEntrySize is one {cells, compLen} range-table entry.
const rangeEntrySize = 4 + 4

// BatchCompressor encodes DataBatch payloads in the compressed framing. It
// owns the word and block scratch, which grows to the largest payload seen
// and is reused — steady-state encoding allocates nothing. Not safe for
// concurrent use; each client connection owns one.
type BatchCompressor struct {
	enc   codec.Encoder
	batch WordBatch
	block []byte
}

// WordBatch is a batch of one cell range in the codec's word order, the form
// a compressed frame is made from: range-major, and within range r a
// [step][field][cell] block of steps × fields × RangeLens[r] words starting
// at word stepCap·fields·(cells before r). A sender may fill it a step at a
// time, each field from its own goroutine (Put), and close it with
// BatchCompressor.EncodeWords.
type WordBatch struct {
	// Timesteps holds one entry per step of the batch so far.
	Timesteps []int
	// RangeLens are the compressed sub-range lengths: positive, summing to
	// the cell count. Reset keeps them.
	RangeLens []int

	group, lo, hi, fields, stepCap int
	words                          []uint64
}

// Reset readies b for a batch of at most stepCap steps of nf fields over
// [lo, hi), reusing its storage.
func (b *WordBatch) Reset(group, lo, hi, nf, stepCap int) {
	b.group, b.lo, b.hi, b.fields, b.stepCap = group, lo, hi, nf, stepCap
	b.Timesteps = b.Timesteps[:0]
	if need := stepCap * nf * (hi - lo); cap(b.words) < need {
		b.words = make([]uint64, need)
	}
}

// Put writes field f of batch step s, whose len(vs) = hi-lo cells it copies
// into their range blocks. Puts of distinct (s, f) touch disjoint words.
func (b *WordBatch) Put(s, f int, vs []float64) {
	base, rlo := 0, 0
	for _, rc := range b.RangeLens {
		off := base + (s*b.fields+f)*rc
		codec.Float64sToWords(b.words[off:off+rc], vs[rlo:rlo+rc])
		base += b.stepCap * b.fields * rc
		rlo += rc
	}
}

// EncodeTo appends the compressed encoding of m to w, cutting the cell range
// at the given sub-range lengths (which must be positive and sum to
// CellHi-CellLo). Every step of m must carry the same field count, with each
// field holding exactly CellHi-CellLo cells — the sender-side invariant the
// raw encoder shares.
func (bc *BatchCompressor) EncodeTo(w *enc.Writer, m *DataBatch, rangeLens []int) {
	nf := 0
	if len(m.Steps) > 0 {
		nf = len(m.Steps[0].Fields)
	}
	b := &bc.batch
	b.Reset(m.GroupID, m.CellLo, m.CellHi, nf, len(m.Steps))
	b.RangeLens = rangeLens
	for s, st := range m.Steps {
		b.Timesteps = append(b.Timesteps, st.Timestep)
		for f, field := range st.Fields {
			b.Put(s, f, field)
		}
	}
	bc.EncodeWords(w, b)
}

// EncodeWords appends the compressed frame of batch b to w. The delta runs
// in place, so b's words are spent.
func (bc *BatchCompressor) EncodeWords(w *enc.Writer, b *WordBatch) {
	ns, nf := len(b.Timesteps), b.fields
	w.U8(uint8(TypeDataBatchC))
	w.Int(b.group)
	w.Int(b.lo)
	w.Int(b.hi)
	w.U32(uint32(ns))
	for _, t := range b.Timesteps {
		w.Int(t)
	}
	w.U32(uint32(nf))
	w.U32(uint32(len(b.RangeLens)))
	tableOff := w.Len()
	for _, rc := range b.RangeLens {
		w.U32(uint32(rc))
		w.U32(0) // compLen, patched below
	}
	if ns == 0 || nf == 0 {
		return
	}
	base := 0
	for r, rc := range b.RangeLens {
		words := b.words[base : base+ns*nf*rc]
		codec.DeltaXOR(words, ns, nf, rc)
		bc.block = bc.enc.Compress(bc.block[:0], words)
		w.Raw(bc.block)
		patchU32(w, tableOff+r*rangeEntrySize+4, uint32(len(bc.block)))
		base += b.stepCap * nf * rc
	}
}

// patchU32 overwrites a little-endian uint32 previously written at off.
func patchU32(w *enc.Writer, off int, v uint32) {
	b := w.Bytes()[off : off+4]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// DataBatchCView is the lazy view of an encoded TypeDataBatchC payload. The
// zero value is ready for Parse; a view may be re-Parsed to amortize its
// offset storage. Like the raw views it aliases the payload.
type DataBatchCView struct {
	GroupID int
	CellLo  int
	CellHi  int

	payload   []byte
	timesteps []int
	numFields int
	rangeLo   []int // range r covers cells [rangeLo[r], rangeLo[r+1]) rel. CellLo
	blockOff  []int // byte offset of range r's compressed block
	blockLen  []int
}

// Cells returns the number of cells per field (CellHi - CellLo).
func (v *DataBatchCView) Cells() int { return v.CellHi - v.CellLo }

// NumSteps returns the number of timesteps in the batch.
func (v *DataBatchCView) NumSteps() int { return len(v.timesteps) }

// NumFields returns the per-step field count.
func (v *DataBatchCView) NumFields() int { return v.numFields }

// StepTimestep returns the timestep of batch entry s.
func (v *DataBatchCView) StepTimestep(s int) int { return v.timesteps[s] }

// NumRanges returns the number of compressed cell sub-ranges.
func (v *DataBatchCView) NumRanges() int { return len(v.blockOff) }

// RangeBounds returns the cell bounds [lo, hi) of sub-range r, relative to
// CellLo.
func (v *DataBatchCView) RangeBounds(r int) (lo, hi int) {
	return v.rangeLo[r], v.rangeLo[r+1]
}

// RangeWords returns the decompressed word count of sub-range r
// (steps × fields × range cells) — the scratch size DecompressRange needs.
func (v *DataBatchCView) RangeWords(r int) int {
	return len(v.timesteps) * v.numFields * (v.rangeLo[r+1] - v.rangeLo[r])
}

// Parse validates payload as a TypeDataBatchC message: header shape, a range
// table that exactly partitions the cell range, block sizes that exactly
// fill the payload, and a token scan of every block (codec.Validate). No
// float data is decompressed. A payload that parses decompresses cleanly.
func (v *DataBatchCView) Parse(payload []byte) error {
	if len(payload) < dataBatchCFixedSize {
		return fmt.Errorf("wire: cbatch view: %d-byte payload shorter than header", len(payload))
	}
	if typ := MsgType(payload[0]); typ != TypeDataBatchC {
		return fmt.Errorf("wire: cbatch view on message type %d", typ)
	}
	r := enc.NewReader(payload[1:])
	v.GroupID = r.Int()
	v.CellLo = r.Int()
	v.CellHi = r.Int()
	cells := v.CellHi - v.CellLo
	if cells <= 0 {
		return fmt.Errorf("wire: cbatch view: empty cell range [%d,%d)", v.CellLo, v.CellHi)
	}
	ns := int(r.U32())
	// Bound every count by what the payload could physically hold before
	// allocating offset storage: a crafted header must not OOM the parser.
	if ns <= 0 || ns > r.Remaining()/8 {
		return fmt.Errorf("wire: cbatch view: %d steps exceed payload", ns)
	}
	v.payload = payload
	v.timesteps = growOffsets(v.timesteps, ns)
	for s := 0; s < ns; s++ {
		v.timesteps[s] = r.Int()
	}
	nf := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: cbatch view: %w", err)
	}
	if nf <= 0 || nf > 1<<16 {
		return fmt.Errorf("wire: cbatch view: %d fields", nf)
	}
	// The blocks hold at most MaxExpansion raw bytes per byte, which bounds
	// the decompressed steps × fields × cells before anything sizes a buffer
	// by it (and keeps 8·ns·nf·cells from overflowing).
	if cells > codec.MaxExpansion/8*r.Remaining()/(ns*nf) {
		return fmt.Errorf("wire: cbatch view: %d steps x %d fields x %d cells exceed payload", ns, nf, cells)
	}
	v.numFields = nf
	nr := int(r.U32())
	if r.Err() != nil || nr <= 0 || nr > r.Remaining()/rangeEntrySize || nr > cells {
		return fmt.Errorf("wire: cbatch view: %d ranges exceed payload or cells", nr)
	}
	v.rangeLo = growOffsets(v.rangeLo, nr+1)
	v.blockOff = growOffsets(v.blockOff, nr)
	v.blockLen = growOffsets(v.blockLen, nr)
	rlo, total := 0, 0
	for i := 0; i < nr; i++ {
		rc := int(r.U32())
		cl := int(r.U32())
		if r.Err() != nil {
			break
		}
		if rc <= 0 || rc > cells-rlo {
			return fmt.Errorf("wire: cbatch view: range %d of %d cells overflows [%d,%d)",
				i, rc, v.CellLo, v.CellHi)
		}
		v.rangeLo[i] = rlo
		v.blockLen[i] = cl
		rlo += rc
		total += cl
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: cbatch view: %w", err)
	}
	if rlo != cells {
		return fmt.Errorf("wire: cbatch view: ranges cover %d of %d cells", rlo, cells)
	}
	v.rangeLo[nr] = cells
	off := len(payload) - r.Remaining()
	if total != r.Remaining() {
		return fmt.Errorf("wire: cbatch view: %d block bytes, %d remain", total, r.Remaining())
	}
	for i := 0; i < nr; i++ {
		v.blockOff[i] = off
		rc := v.rangeLo[i+1] - v.rangeLo[i]
		block := payload[off : off+v.blockLen[i]]
		if err := codec.Validate(block, 8*ns*nf*rc); err != nil {
			return fmt.Errorf("wire: cbatch view: range %d: %w", i, err)
		}
		off += v.blockLen[i]
	}
	return nil
}

// DecompressRange expands sub-range r into words, which must hold exactly
// RangeWords(r) entries, laid out [step][field][cell]. A view that parsed
// never returns an error here (Parse token-scanned every block).
func (v *DataBatchCView) DecompressRange(r int, d *codec.Decoder, words []uint64) error {
	block := v.payload[v.blockOff[r] : v.blockOff[r]+v.blockLen[r]]
	if err := d.Decompress(words, block); err != nil {
		return err
	}
	rc := v.rangeLo[r+1] - v.rangeLo[r]
	codec.UndeltaXOR(words, len(v.timesteps), v.numFields, rc)
	return nil
}
