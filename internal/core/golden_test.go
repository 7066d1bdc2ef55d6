package core_test

// Golden-fixture tests for the checkpoint byte stream. testdata/ holds one
// accumulator per checkpoint layout that matters:
//
//   - accumulator_v1.ckpt and accumulator_v2.ckpt were written by the seed
//     (pre-interleave) kernel in the dense per-statistic-array layouts. No
//     build writes those layouts any more; they are frozen history that must
//     keep decoding to exactly the state the current kernel folds, which pins
//     both the kernel and the upgrade path from older builds.
//   - accumulator_v4.ckpt is the record image (LayoutV4) of the same fold,
//     written by tools/goldengen. It pins the current format byte for byte.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/enc"
)

// goldenLCG reproduces tools/goldengen's deterministic filler so the test
// can rebuild the exact accumulator the fixtures encode.
type goldenLCG struct{ s uint64 }

func (l *goldenLCG) next() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(int64(l.s>>11)) / float64(1<<52)
}

const (
	goldenCells  = 13
	goldenSteps  = 3
	goldenP      = 4
	goldenGroups = 9
)

// goldenVersions are the fixture layouts in testdata/.
var goldenVersions = []int{core.LayoutV1, core.LayoutV2, core.LayoutV4}

func buildGoldenAccumulator(t *testing.T, opts core.Options) *core.Accumulator {
	t.Helper()
	a := core.NewAccumulator(goldenCells, goldenSteps, goldenP, opts)
	foldGolden(a)
	return a
}

// foldGolden folds the fixtures' update stream into a.
func foldGolden(a *core.Accumulator) {
	g := &goldenLCG{s: 2017}
	yA := make([]float64, goldenCells)
	yB := make([]float64, goldenCells)
	yC := make([][]float64, goldenP)
	for k := range yC {
		yC[k] = make([]float64, goldenCells)
	}
	for ts := 0; ts < goldenSteps; ts++ {
		for n := 0; n < goldenGroups; n++ {
			for i := 0; i < goldenCells; i++ {
				yA[i] = g.next()
				yB[i] = g.next()
				for k := 0; k < goldenP; k++ {
					yC[k][i] = g.next()
				}
			}
			a.UpdateGroup(ts, yA, yB, yC)
		}
	}
}

// goldenOptions is the statistics set of the fixture of a layout version:
// everything, quantiles included once the layout can hold them.
func goldenOptions(version int) core.Options {
	th := 0.25
	opts := core.Options{MinMax: true, Threshold: &th, HigherMoments: true}
	if version >= core.LayoutV2 {
		opts.Quantiles = []float64{0.1, 0.5, 0.9}
		opts.QuantileEps = 0.05
	}
	return opts
}

func goldenPath(version int) string {
	return filepath.Join("testdata", fmt.Sprintf("accumulator_v%d.ckpt", version))
}

// readGolden returns a fixture's verified payload reader, failing unless its
// header carries the expected version.
func readGolden(t *testing.T, version int) *enc.Reader {
	t.Helper()
	r, got, err := checkpoint.Read(goldenPath(version))
	if err != nil {
		t.Fatalf("v%d: %v", version, err)
	}
	if got != version {
		t.Fatalf("fixture header says v%d, want v%d", got, version)
	}
	return r
}

func encodeAcc(a *core.Accumulator) []byte {
	w := enc.NewWriter(1 << 15)
	a.Encode(w)
	return w.Bytes()
}

// TestGoldenFixtureDecode restores every fixture version and checks the state
// against a freshly-built accumulator of the same update stream — every
// index, every optional statistic, bit for bit.
func TestGoldenFixtureDecode(t *testing.T) {
	for _, version := range goldenVersions {
		dec, err := core.DecodeShardedVersion(readGolden(t, version), version, 1)
		if err != nil {
			t.Fatalf("v%d decode: %v", version, err)
		}
		want := buildGoldenAccumulator(t, goldenOptions(version))
		for ts := 0; ts < goldenSteps; ts++ {
			if dec.N(ts) != want.N(ts) {
				t.Fatalf("v%d step %d: n=%d want %d", version, ts, dec.N(ts), want.N(ts))
			}
			for k := 0; k < goldenP; k++ {
				for i := 0; i < goldenCells; i++ {
					if dec.FirstAt(ts, k, i) != want.FirstAt(ts, k, i) {
						t.Fatalf("v%d: S%d(%d,%d) differs from rebuilt state", version, k, ts, i)
					}
					if dec.TotalAt(ts, k, i) != want.TotalAt(ts, k, i) {
						t.Fatalf("v%d: ST%d(%d,%d) differs from rebuilt state", version, k, ts, i)
					}
				}
			}
			for i := 0; i < goldenCells; i++ {
				if dec.MinField(ts, nil)[i] != want.MinField(ts, nil)[i] ||
					dec.MaxField(ts, nil)[i] != want.MaxField(ts, nil)[i] {
					t.Fatalf("v%d: min/max differs at (%d,%d)", version, ts, i)
				}
				if dec.ExceedanceField(ts, nil)[i] != want.ExceedanceField(ts, nil)[i] {
					t.Fatalf("v%d: exceedance differs at (%d,%d)", version, ts, i)
				}
				if dec.SkewnessField(ts, nil)[i] != want.SkewnessField(ts, nil)[i] {
					t.Fatalf("v%d: skewness differs at (%d,%d)", version, ts, i)
				}
			}
			for _, q := range want.QuantileProbes() {
				dq := dec.QuantileField(ts, q, nil)
				wq := want.QuantileField(ts, q, nil)
				for i := range wq {
					if dq[i] != wq[i] {
						t.Fatalf("v%d: quantile %v differs at (%d,%d)", version, q, ts, i)
					}
				}
			}
		}
	}
}

// TestGoldenFixtureReencode goes below the getters: each fixture, decoded
// and re-encoded in the current layout, must give the exact bytes of the
// rebuilt accumulator — every record slot and sketch tuple of the seed
// kernel's state reproduced. The v2 fixture holds the same statistics as v4,
// so it re-encodes to the v4 fixture's payload itself.
func TestGoldenFixtureReencode(t *testing.T) {
	v4, err := os.ReadFile(goldenPath(core.LayoutV4))
	if err != nil {
		t.Fatal(err)
	}
	v4Payload := v4[16:] // past the checkpoint header
	for _, version := range goldenVersions {
		dec, err := core.DecodeShardedVersion(readGolden(t, version), version, 1)
		if err != nil {
			t.Fatalf("v%d decode: %v", version, err)
		}
		got := encodeAcc(dec)
		if want := encodeAcc(buildGoldenAccumulator(t, goldenOptions(version))); !bytes.Equal(got, want) {
			t.Fatalf("v%d: re-encoded fixture differs from the rebuilt state (%d vs %d bytes)", version, len(got), len(want))
		}
		if version >= core.LayoutV2 && !bytes.Equal(got, v4Payload) {
			t.Fatalf("v%d: re-encoded fixture differs from the v4 fixture payload (%d vs %d bytes)", version, len(got), len(v4Payload))
		}
	}
}

// TestGoldenFixtureFreshEncode pins the current format: an accumulator built
// from scratch must encode to the v4 fixture's bytes, whether it was folded
// by one shard or by any number of them; and the checkpoint writer's
// snapshot sections must match the encode of the same (compacted) state.
func TestGoldenFixtureFreshEncode(t *testing.T) {
	raw, err := os.ReadFile(goldenPath(core.LayoutV4))
	if err != nil {
		t.Fatal(err)
	}
	wantPayload := raw[16:]
	opts := goldenOptions(core.LayoutV4)
	if got := encodeAcc(buildGoldenAccumulator(t, opts)); !bytes.Equal(got, wantPayload) {
		t.Fatalf("freshly-built accumulator encodes differently from the v4 fixture (%d vs %d bytes)",
			len(got), len(wantPayload))
	}
	for _, shards := range []int{1, 2, 5} {
		s := core.NewSharded(goldenCells, goldenSteps, goldenP, opts, shards)
		foldGolden(s)
		if !bytes.Equal(encodeAcc(s), wantPayload) {
			t.Fatalf("%d shards: folded state encodes differently from the v4 fixture", shards)
		}
		s.CompactQuantiles()
		snap := s.NewSnapshot()
		for i := 0; i < s.NumShards(); i++ {
			s.SnapshotShard(i, snap)
		}
		if !bytes.Equal(encodeSnapshot(snap), encodeAcc(s)) {
			t.Fatalf("%d shards: snapshot sections differ from the encode", shards)
		}
	}
}

// TestGoldenFixtureRestoredContinues folds more groups into each restored
// fixture that carries quantiles and checks the restored accumulator keeps
// producing the same stream as the rebuilt one — the server-restart path.
func TestGoldenFixtureRestoredContinues(t *testing.T) {
	for _, version := range []int{core.LayoutV2, core.LayoutV4} {
		dec, err := core.DecodeShardedVersion(readGolden(t, version), version, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := buildGoldenAccumulator(t, goldenOptions(version))
		g := &goldenLCG{s: 99}
		yA := make([]float64, goldenCells)
		yB := make([]float64, goldenCells)
		yC := make([][]float64, goldenP)
		for k := range yC {
			yC[k] = make([]float64, goldenCells)
		}
		for n := 0; n < 5; n++ {
			for i := 0; i < goldenCells; i++ {
				yA[i] = g.next()
				yB[i] = g.next()
				for k := 0; k < goldenP; k++ {
					yC[k][i] = g.next()
				}
			}
			dec.UpdateGroup(0, yA, yB, yC)
			want.UpdateGroup(0, yA, yB, yC)
		}
		// Float state only: encoding flushes a sketch's insert buffer, so a
		// restored sketch batches later inserts differently from one that
		// never went through a checkpoint.
		fields := map[string][2][]float64{
			"min":      {dec.MinField(0, nil), want.MinField(0, nil)},
			"max":      {dec.MaxField(0, nil), want.MaxField(0, nil)},
			"exceed":   {dec.ExceedanceField(0, nil), want.ExceedanceField(0, nil)},
			"kurtosis": {dec.KurtosisField(0, nil), want.KurtosisField(0, nil)},
		}
		for k := 0; k < goldenP; k++ {
			fields[fmt.Sprintf("S%d", k)] = [2][]float64{dec.FirstField(0, k, nil), want.FirstField(0, k, nil)}
			fields[fmt.Sprintf("ST%d", k)] = [2][]float64{dec.TotalField(0, k, nil), want.TotalField(0, k, nil)}
		}
		for name, pair := range fields {
			for i := range pair[1] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("v%d: restored accumulator diverges at %s cell %d", version, name, i)
				}
			}
		}
	}
}

// TestAccumulatorLayoutV1RoundTrip: a V1 stream (pre-quantile builds)
// restores into a V1 reader with quantiles disabled and keeps folding, and
// re-encoding it carries every V1 statistic across bit-exactly. Unknown
// layout versions are rejected cleanly.
func TestAccumulatorLayoutV1RoundTrip(t *testing.T) {
	b, err := core.DecodeShardedVersion(readGolden(t, core.LayoutV1), core.LayoutV1, 1)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if b.QuantileProbes() != nil || b.QuantileTupleCount() != 0 {
		t.Fatal("v1 stream restored with quantile state")
	}
	again, err := core.DecodeShardedVersion(enc.NewReader(encodeAcc(b)), core.LayoutCurrent, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeAcc(again), encodeAcc(b)) {
		t.Fatal("v1 state changed across a current-layout round trip")
	}
	// The restored accumulator keeps folding (server restart from an old
	// checkpoint) — just without quantiles.
	n := b.N(0)
	zero := make([]float64, goldenCells)
	yC := make([][]float64, goldenP)
	for k := range yC {
		yC[k] = zero
	}
	b.UpdateGroup(0, zero, zero, yC)
	if b.N(0) != n+1 {
		t.Fatal("v1-restored accumulator cannot continue")
	}

	for _, version := range []int{0, core.LayoutCurrent + 1} {
		if _, err := core.DecodeShardedVersion(readGolden(t, core.LayoutV1), version, 1); err == nil {
			t.Fatalf("layout version %d accepted", version)
		}
		if _, err := core.DecodeShardedVersion(readGolden(t, core.LayoutV1), version, 2); err == nil {
			t.Fatalf("layout version %d accepted by the sharded restore", version)
		}
	}
}
