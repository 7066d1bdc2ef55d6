package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"melissa/internal/enc"
)

// goldenPayload returns the payload of testdata's fixture of a layout
// version, past its 16-byte checkpoint header.
func goldenPayload(tb testing.TB, version int) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("accumulator_v%d.ckpt", version)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw[16:]
}

// encodeImage writes s through a snapshot, section by section, exactly as
// the background checkpoint writer does.
func encodeImage(s *Accumulator) []byte {
	snap := s.NewSnapshot()
	for i := range s.shards {
		s.SnapshotShard(i, snap)
	}
	w := enc.NewWriter(1 << 12)
	snap.EncodeHeader(w, LayoutCurrent)
	for t := 0; t < snap.Timesteps(); t++ {
		snap.EncodeStep(w, LayoutCurrent, t)
	}
	return w.Bytes()
}

// oversizedHeader is a 51-byte payload whose header claims 2^40 cells of one
// timestep and one parameter, no trackers and no quantiles, followed by one
// step count — a few bytes asking for a 2^40 × 8 × 8-byte state.
func oversizedHeader() []byte {
	w := enc.NewWriter(64)
	w.Int(1 << 40) // cells
	w.Int(1)       // timesteps
	w.Int(1)       // p
	w.Bool(false)  // min/max
	w.Bool(false)  // threshold
	w.Bool(false)  // higher moments
	w.F64Slice(nil)
	w.F64(0)
	w.I64(0) // n of step 0
	return w.Bytes()
}

// TestDecodeRejectsOversizedHeader: a corrupt header must be a decode error
// in every layout version, not an allocation the process cannot survive (an
// out-of-memory fault is fatal, beyond any recover).
func TestDecodeRejectsOversizedHeader(t *testing.T) {
	payload := oversizedHeader()
	if len(payload) != 51 {
		t.Fatalf("payload is %d bytes, want 51", len(payload))
	}
	for version := LayoutV1; version <= LayoutCurrent; version++ {
		if _, err := DecodeShardedVersion(enc.NewReader(payload), version, 2); err == nil {
			t.Fatalf("v%d: sharded decode accepted a 2^40-cell header", version)
		}
		if _, err := DecodeShardedVersion(enc.NewReader(payload), version, 1); err == nil {
			t.Fatalf("v%d: one-shard decode accepted a 2^40-cell header", version)
		}
	}
}

// TestRestoreV4AllocatesStateOnce: a record image restores straight into the
// destination shards — no one-shard intermediate, no split copy — so the
// restore allocates about one state's worth of memory, where decoding into
// one shard and splitting it would allocate two.
func TestRestoreV4AllocatesStateOnce(t *testing.T) {
	const cells, timesteps, p, shards = 4096, 4, 3, 3
	s := NewSharded(cells, timesteps, p, Options{MinMax: true, HigherMoments: true}, shards)
	rng := rand.New(rand.NewSource(17))
	for ts := 0; ts < timesteps; ts++ {
		feedAll(s, ts, randomGroups(rng, 3, cells, p))
	}
	payload := encodeImage(s)
	state := s.MemoryBytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := DecodeShardedVersion(enc.NewReader(payload), LayoutCurrent, shards)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := int64(after.TotalAlloc - before.TotalAlloc); alloc > state+state/4 {
		t.Fatalf("restore allocated %d bytes for a %d-byte state", alloc, state)
	}
	compareBitwise(t, back, s)
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint restore path —
// the accumulator block, then the group-tracker block — in every layout
// version and at 1–4 shards. The decoders must never panic; a decode that
// succeeds must not hold more float state than the input has bytes; and a
// record image must be a fixpoint after one round: decode, re-encode, decode
// and re-encode again gives the same bytes. The seed corpus (the golden
// fixtures with a tracker block appended, and the oversized header) runs in
// every `go test`; `go test -fuzz FuzzDecodeCheckpoint` explores from it.
func FuzzDecodeCheckpoint(f *testing.F) {
	const finalStep = 2 // the fixtures hold 3 timesteps
	tr := NewGroupTracker(finalStep)
	for s := 0; s <= finalStep; s++ {
		tr.Commit(5, s)
	}
	tr.Commit(6, 1)
	for _, version := range []int{LayoutV1, LayoutV2, LayoutV4} {
		w := enc.NewWriter(1 << 15)
		w.Raw(goldenPayload(f, version))
		if version < LayoutV3 {
			for _, v := range []int{finalStep, 2, 5, finalStep, 6, 1} { // final step, count, (id, last) pairs
				w.Int(v)
			}
		} else {
			tr.Encode(w)
		}
		f.Add(uint8(version), uint8(1), append([]byte(nil), w.Bytes()...))
	}
	f.Add(uint8(LayoutV4), uint8(0), oversizedHeader())

	f.Fuzz(func(t *testing.T, v, shards uint8, data []byte) {
		version := 1 + int(v)%LayoutCurrent
		n := 1 + int(shards)%4
		r := enc.NewReader(data)
		s, err := DecodeShardedVersion(r, version, n)
		if err != nil {
			return
		}
		if state := 8 * int64(s.cells) * int64(s.timesteps) * int64(s.shards[0].stride); state > int64(len(data)) {
			t.Fatalf("v%d: decoded %d bytes of float state from a %d-byte input", version, state, len(data))
		}
		_, _ = DecodeGroupTrackerVersion(r, version)
		if version != LayoutV4 {
			return
		}
		first := append([]byte(nil), encodeImage(s)...)
		again, err := DecodeShardedVersion(enc.NewReader(first), version, n)
		if err != nil {
			t.Fatalf("re-encoded image does not decode: %v", err)
		}
		if second := encodeImage(again); !bytes.Equal(first, second) {
			t.Fatalf("record image is not stable across decode/encode (%d vs %d bytes)", len(first), len(second))
		}
	})
}
