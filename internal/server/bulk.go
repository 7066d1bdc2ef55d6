package server

import (
	"sync"
	"time"

	"melissa/internal/codec"
	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// bulkMsg is one retained inbound bulk payload (Data, DataBatch or the
// compressed DataBatchC): the transport buffer with its embedded refcount,
// the parsed lazy view — raw (a Data frame reads as a one-step batch) or
// compressed — and the header fields every stage reads (copied out of the
// view once, at parse). The router parses and routes it; the shard workers
// share it read-only, each reading exactly its shard's cell sub-range in
// place in the payload bytes (decompressing its own shard-aligned block
// first on the codec path, cached per worker across the batch's steps). The
// final Release recycles the buffer and retires the message.
// Shells are pooled; gen counts the payloads parsed into one shell, so
// worker-side decode caches can key on (shell, gen).
type bulkMsg struct {
	transport.Ref
	raw        wire.DataBatchView
	comp       wire.DataBatchCView
	compressed bool
	gen        uint64

	group, cellLo, cellHi int
	steps, fields         int

	// Set by the fold pool while the router still holds its own reference:
	applied int32 // (group, timestep) updates committed via the direct path
}

// bulkShells recycles message shells across payloads (and processes: a
// shell's views re-parse any shape).
var bulkShells = sync.Pool{New: func() any { return new(bulkMsg) }}

// parseBulk parses one Data/DataBatch/DataBatchC payload into a pooled shell
// holding the caller's single reference. On error the payload is still the
// caller's.
func parseBulk(payload []byte) (*bulkMsg, error) {
	m := bulkShells.Get().(*bulkMsg)
	var err error
	m.compressed = wire.PayloadType(payload) == wire.TypeDataBatchC
	if m.compressed {
		v := &m.comp
		err = v.Parse(payload)
		m.group, m.cellLo, m.cellHi = v.GroupID, v.CellLo, v.CellHi
		m.steps, m.fields = v.NumSteps(), v.NumFields()
	} else {
		v := &m.raw
		err = v.ParseRaw(payload)
		m.group, m.cellLo, m.cellHi = v.GroupID, v.CellLo, v.CellHi
		m.steps, m.fields = v.NumSteps(), v.NumFields()
	}
	if err != nil {
		bulkShells.Put(m)
		return nil, err
	}
	m.Init(payload, 1)
	m.applied = 0
	m.gen++
	return m, nil
}

// rawBytes is what the message's content costs in the uncompressed framing.
func (m *bulkMsg) rawBytes() int64 {
	if m.compressed {
		return wire.DataBatchSizeBytes(m.steps, m.fields, m.cellHi-m.cellLo)
	}
	return int64(len(m.Payload()))
}

func (m *bulkMsg) stepTimestep(s int) int {
	if m.compressed {
		return m.comp.StepTimestep(s)
	}
	return m.raw.StepTimestep(s)
}

// fieldRange lends cells [lo, hi) — relative to cellLo — of field f at batch
// entry s without copying them, or returns nil when the message cannot: raw
// payloads lend them in place (the wire view's FieldRange), compressed ones
// from the calling worker's decompressed words when one sub-range covers
// [lo, hi). The slice is read-only and valid until the worker's next task.
func (m *bulkMsg) fieldRange(cc *codecCache, s, f, lo, hi int) []float64 {
	if !m.compressed {
		return m.raw.FieldRange(s, f, lo, hi)
	}
	v := &m.comp
	for r := 0; r < v.NumRanges(); r++ {
		if rlo, rhi := v.RangeBounds(r); rlo <= lo && hi <= rhi {
			rc, at := rhi-rlo, (s*m.fields+f)*(rhi-rlo)
			return codec.AsFloat64s(cc.rangeWords(m, r)[at+lo-rlo : at+hi-rlo : at+rc])
		}
	}
	return nil
}

// decodeFieldRange copies cells [lo, hi) — relative to cellLo — of field f
// at batch entry s into dst[:hi-lo]. Compressed payloads go through the
// calling worker's decode cache.
func (m *bulkMsg) decodeFieldRange(cc *codecCache, s, f, lo, hi int, dst []float64) {
	if m.compressed {
		m.decodeCompressedRange(cc, s, f, lo, hi, dst)
	} else {
		m.raw.DecodeFieldRange(s, f, lo, hi, dst)
	}
}

// decodeCompressedRange converts cells [lo, hi) of (step s, field f) out of
// the compressed payload: it walks the frame's cell sub-ranges overlapping
// [lo, hi), decompresses each at most once per worker per message (the
// cache), and bit-copies the words into dst. Clients cut sub-ranges on this
// process's shard boundaries, so in steady state a worker decompresses
// exactly its own block; after a pool resize (checkpoint restore) it may
// touch a neighbouring block — correct either way.
func (m *bulkMsg) decodeCompressedRange(cc *codecCache, s, f, lo, hi int, dst []float64) {
	v := &m.comp
	nf := m.fields
	for r := 0; r < v.NumRanges() && lo < hi; r++ {
		rlo, rhi := v.RangeBounds(r)
		if rhi <= lo {
			continue
		}
		if rlo >= hi {
			break
		}
		words := cc.rangeWords(m, r)
		rc := rhi - rlo
		olo, ohi := max(lo, rlo), min(hi, rhi)
		block := words[(s*nf+f)*rc : (s*nf+f+1)*rc]
		codec.WordsToFloat64s(dst[olo-lo:ohi-lo], block[olo-rlo:ohi-rlo])
	}
}

// codecCache is one fold worker's decompression state: the codec scratch and
// the per-range decompressed words of the message currently in front of the
// worker. The router enqueues every step of a batch back to back, so keying
// on (shell, generation) makes each worker decompress its block(s) once per
// message, not once per step. Storage grows to the largest (ranges × block)
// shape seen and is reused — steady-state decoding allocates nothing.
type codecCache struct {
	dec   codec.Decoder
	msg   *bulkMsg
	gen   uint64
	words [][]uint64
	ready []bool
}

// rangeWords returns the decompressed words of sub-range r of m, reusing the
// cached copy when this worker already expanded it for an earlier step.
func (cc *codecCache) rangeWords(m *bulkMsg, r int) []uint64 {
	if cc.msg != m || cc.gen != m.gen {
		cc.msg, cc.gen = m, m.gen
		nr := m.comp.NumRanges()
		if cap(cc.ready) < nr {
			cc.ready = make([]bool, nr)
			cc.words = make([][]uint64, nr)
		}
		cc.ready = cc.ready[:nr]
		cc.words = cc.words[:nr]
		clear(cc.ready)
	}
	if !cc.ready[r] {
		need := m.comp.RangeWords(r)
		if cap(cc.words[r]) < need {
			cc.words[r] = make([]uint64, need)
		}
		cc.words[r] = cc.words[r][:need]
		t0 := time.Now()
		// Parse token-scanned every block (codec.Validate), so this cannot
		// fail on a routed message; the check is pure defence in depth.
		if err := m.comp.DecompressRange(r, &cc.dec, cc.words[r]); err != nil {
			olog.Errorw("server.codec_decompress_failed", "err", err)
			clear(cc.words[r])
		}
		mCodecSeconds.ObserveSince(t0)
		cc.ready[r] = true
	}
	return cc.words[r]
}
