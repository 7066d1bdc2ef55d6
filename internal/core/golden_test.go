package core_test

// Golden-fixture tests for the checkpoint byte stream. The fixtures in
// testdata/ were written by the seed (pre-interleave) kernel via
// tools/goldengen: the dense per-statistic-array layout, one file per
// checkpoint version. The interleaved accumulator must keep decoding them
// and re-encoding them byte-for-byte, which pins cross-version and
// mixed-build interoperability: a checkpoint written today restores on a
// seed build and vice versa.

import (
	"bytes"
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

func buildGoldenAccumulator(t *testing.T, opts core.Options) *core.Accumulator {
	t.Helper()
	a := core.NewAccumulator(goldenCells, goldenSteps, goldenP, opts)
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
	return a
}

func goldenOptions(version int) core.Options {
	th := 0.25
	opts := core.Options{MinMax: true, Threshold: &th, HigherMoments: true}
	if version >= core.LayoutV2 {
		opts.Quantiles = []float64{0.1, 0.5, 0.9}
		opts.QuantileEps = 0.05
	}
	return opts
}

func goldenPath(t *testing.T, version int) string {
	t.Helper()
	name := "accumulator_v1.ckpt"
	if version >= core.LayoutV2 {
		name = "accumulator_v2.ckpt"
	}
	return filepath.Join("testdata", name)
}

// TestGoldenFixtureDecode restores both fixture versions and checks the
// state against a freshly-built accumulator of the same update stream —
// every index, every optional statistic, bit for bit.
func TestGoldenFixtureDecode(t *testing.T) {
	for _, version := range []int{core.LayoutV1, core.LayoutV2} {
		r, gotVersion, err := checkpoint.Read(goldenPath(t, version))
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		if gotVersion != version {
			t.Fatalf("fixture header says v%d, want v%d", gotVersion, version)
		}
		dec, err := core.DecodeAccumulatorVersion(r, gotVersion)
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
			if version >= core.LayoutV2 {
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
}

// TestGoldenFixtureReencode proves the transposed Encode reproduces the
// seed kernel's payload bytes exactly: decode each fixture, re-encode at the
// same layout version, and compare against the fixture payload.
func TestGoldenFixtureReencode(t *testing.T) {
	for _, version := range []int{core.LayoutV1, core.LayoutV2} {
		path := goldenPath(t, version)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantPayload := raw[16:] // past the checkpoint header

		r, gotVersion, err := checkpoint.Read(path)
		if err != nil {
			t.Fatalf("v%d: %v", version, err)
		}
		dec, err := core.DecodeAccumulatorVersion(r, gotVersion)
		if err != nil {
			t.Fatalf("v%d decode: %v", version, err)
		}
		w := enc.NewWriter(len(wantPayload))
		dec.EncodeVersion(w, version)
		if !bytes.Equal(w.Bytes(), wantPayload) {
			t.Fatalf("v%d: re-encoded payload differs from seed-kernel fixture (%d vs %d bytes)",
				version, w.Len(), len(wantPayload))
		}
	}
}

// TestGoldenFixtureFreshEncode goes one step further: an accumulator built
// from scratch by the interleaved kernel must encode to the exact bytes the
// seed kernel wrote — update path, layout transpose and trackers all
// bitwise-faithful.
func TestGoldenFixtureFreshEncode(t *testing.T) {
	for _, version := range []int{core.LayoutV1, core.LayoutV2} {
		raw, err := os.ReadFile(goldenPath(t, version))
		if err != nil {
			t.Fatal(err)
		}
		wantPayload := raw[16:]
		a := buildGoldenAccumulator(t, goldenOptions(version))
		w := enc.NewWriter(len(wantPayload))
		a.EncodeVersion(w, version)
		if !bytes.Equal(w.Bytes(), wantPayload) {
			t.Fatalf("v%d: freshly-built accumulator encodes differently from the seed kernel (%d vs %d bytes)",
				version, w.Len(), len(wantPayload))
		}
	}
}

// TestGoldenFixtureRestoredContinues folds more groups into a restored
// fixture and checks the restored accumulator keeps producing the same
// stream as the rebuilt one — the server-restart path.
func TestGoldenFixtureRestoredContinues(t *testing.T) {
	r, version, err := checkpoint.Read(goldenPath(t, core.LayoutV2))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.DecodeAccumulatorVersion(r, version)
	if err != nil {
		t.Fatal(err)
	}
	want := buildGoldenAccumulator(t, goldenOptions(core.LayoutV2))
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
	for k := 0; k < goldenP; k++ {
		for i := 0; i < goldenCells; i++ {
			if dec.FirstAt(0, k, i) != want.FirstAt(0, k, i) {
				t.Fatalf("restored accumulator diverges at S%d cell %d", k, i)
			}
		}
	}
}
