package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"melissa/internal/core"
	"melissa/internal/enc"
)

// foldRandomGroups drives nGroups deterministic pseudo-random group updates
// into s (the full-partition UpdateGroup path, identical across shard
// counts).
func foldRandomGroups(s *core.Accumulator, cells, timesteps, p, nGroups int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	yA := make([]float64, cells)
	yB := make([]float64, cells)
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = make([]float64, cells)
	}
	for g := 0; g < nGroups; g++ {
		for t := 0; t < timesteps; t++ {
			for i := 0; i < cells; i++ {
				yA[i] = rng.NormFloat64()
				yB[i] = rng.NormFloat64()
				for k := range yC {
					yC[k][i] = rng.NormFloat64()
				}
			}
			s.UpdateGroup(t, yA, yB, yC)
		}
	}
}

// encodeSnapshot writes snap the way the background checkpoint writer does:
// the header, then one section per timestep.
func encodeSnapshot(snap *core.Snapshot) []byte {
	w := enc.NewWriter(1 << 16)
	snap.EncodeHeader(w, core.LayoutCurrent)
	for t := 0; t < snap.Timesteps(); t++ {
		snap.EncodeStep(w, core.LayoutCurrent, t)
	}
	return w.Bytes()
}

// TestSnapshotEncodeMatchesDense: a snapshot filled shard by shard must
// encode, via the stitched section writers, to exactly the bytes of the
// one-shot Accumulator.Encode at the same fold state — the byte-identity
// contract the background checkpoint writer relies on. Swept over every
// Options combination and several shard counts.
func TestSnapshotEncodeMatchesDense(t *testing.T) {
	const cells, timesteps, p, nGroups = 37, 3, 2, 9
	for ci, opts := range optionCombos() {
		for _, shards := range []int{1, 3, 4} {
			s := core.NewSharded(cells, timesteps, p, opts, shards)
			foldRandomGroups(s, cells, timesteps, p, nGroups, int64(1000+ci))
			s.CompactQuantiles()

			want := encodeAcc(s)

			snap := s.NewSnapshot()
			for i := 0; i < s.NumShards(); i++ {
				s.SnapshotShard(i, snap)
			}
			got := encodeSnapshot(snap)

			if !bytes.Equal(want, got) {
				t.Fatalf("combo %d shards %d: snapshot encode differs from Encode (%d vs %d bytes)",
					ci, shards, len(got), len(want))
			}
		}
	}
}

// TestEncodeShardCountInvariant: Accumulator.Encode stitches the shards'
// records and live sketches in cell order, so one update stream encodes to
// the same bytes at every shard count, for every Options combination —
// quantiles on and off — without compacting anything first.
func TestEncodeShardCountInvariant(t *testing.T) {
	const cells, timesteps, p, nGroups = 29, 2, 3, 7
	for ci, opts := range optionCombos() {
		var want []byte
		for _, shards := range []int{1, 2, 3, 7} {
			s := core.NewSharded(cells, timesteps, p, opts, shards)
			foldRandomGroups(s, cells, timesteps, p, nGroups, int64(2000+ci))
			got := encodeAcc(s)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d shards encode differently from one (%d vs %d bytes)",
					optionName(opts), shards, len(got), len(want))
			}
		}
	}
}

// TestSnapshotReuse: refreshing a pooled snapshot after further folding must
// fully overwrite the previous image — and still match the one-shot encode —
// so double-buffered snapshot reuse can never leak stale state into a
// checkpoint.
func TestSnapshotReuse(t *testing.T) {
	const cells, timesteps, p, shards = 41, 2, 3, 3
	opts := core.Options{MinMax: true, HigherMoments: true, Quantiles: []float64{0.25, 0.75}}
	s := core.NewSharded(cells, timesteps, p, opts, shards)

	snap := s.NewSnapshot()
	foldRandomGroups(s, cells, timesteps, p, 5, 7)
	s.CompactQuantiles()
	for i := 0; i < s.NumShards(); i++ {
		s.SnapshotShard(i, snap)
	}

	// Fold more, refresh the same snapshot, and compare against a one-shot
	// encode and a fresh snapshot.
	foldRandomGroups(s, cells, timesteps, p, 6, 8)
	s.CompactQuantiles()
	for i := 0; i < s.NumShards(); i++ {
		s.SnapshotShard(i, snap)
	}
	want := encodeAcc(s)
	got := encodeSnapshot(snap)
	if !bytes.Equal(want, got) {
		t.Fatal("reused snapshot differs from Encode after refresh")
	}

	fresh := s.NewSnapshot()
	for i := 0; i < s.NumShards(); i++ {
		s.SnapshotShard(i, fresh)
	}
	if !bytes.Equal(encodeSnapshot(fresh), got) {
		t.Fatal("reused snapshot differs from fresh snapshot")
	}
}

// TestSnapshotDecodesRoundTrip: the snapshot's streamed encode must be
// decodable into one shard and by the sharded restore at any shard count,
// restoring the same statistics.
func TestSnapshotDecodesRoundTrip(t *testing.T) {
	const cells, timesteps, p = 23, 2, 2
	opts := core.Options{MinMax: true, Quantiles: []float64{0.5}}
	s := core.NewSharded(cells, timesteps, p, opts, 4)
	foldRandomGroups(s, cells, timesteps, p, 8, 42)
	s.CompactQuantiles()

	snap := s.NewSnapshot()
	for i := 0; i < s.NumShards(); i++ {
		s.SnapshotShard(i, snap)
	}
	image := encodeSnapshot(snap)
	dec, err := core.DecodeShardedVersion(enc.NewReader(image), core.LayoutCurrent, 1)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < timesteps; t2++ {
		for k := 0; k < p; k++ {
			for c := 0; c < cells; c++ {
				if dec.FirstAt(t2, k, c) != s.FirstAt(t2, k, c) {
					t.Fatalf("decoded S%d(t=%d,c=%d) differs", k, t2, c)
				}
			}
		}
		for _, q := range opts.Quantiles {
			dq, sq := dec.QuantileField(t2, q, nil), s.QuantileField(t2, q, nil)
			for c := range sq {
				if dq[c] != sq[c] {
					t.Fatalf("decoded quantile %v (t=%d,c=%d) differs", q, t2, c)
				}
			}
		}
	}
	for _, shards := range []int{1, 3, 4} {
		back, err := core.DecodeShardedVersion(enc.NewReader(image), core.LayoutCurrent, shards)
		if err != nil {
			t.Fatal(err)
		}
		if back.NumShards() != shards {
			t.Fatalf("restored into %d shards, want %d", back.NumShards(), shards)
		}
		if !bytes.Equal(encodeAcc(back), encodeAcc(s)) {
			t.Fatalf("%d shards: restored state differs from the snapshot's source", shards)
		}
	}
}

// TestSnapshotEncoderWritesOnlyCurrentLayout: the older layouts are read,
// never written — asking the encoders for one is a programming error.
func TestSnapshotEncoderWritesOnlyCurrentLayout(t *testing.T) {
	s := core.NewSharded(4, 1, 1, core.Options{}, 2)
	snap := s.NewSnapshot()
	for _, version := range []int{core.LayoutV1, core.LayoutV3, core.LayoutCurrent + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodeHeader accepted layout version %d", version)
				}
			}()
			snap.EncodeHeader(enc.NewWriter(16), version)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodeStep accepted layout version %d", version)
				}
			}()
			snap.EncodeStep(enc.NewWriter(16), version, 0)
		}()
	}
}
