package codec

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// linfieldWords builds a [steps][fields][cells] block shaped like the
// benchmark's solver fixture: one pick-freeze group of fields = p+2 members,
// each y(i) = float32(base(i) + a·pert(i)) with smooth travelling-sine base
// and perturbation fields and a per-member amplitude a, widened to float64.
// The result is what a client compresses: DeltaXOR is already applied.
func linfieldWords(steps, fields, cells int) []uint64 {
	p := fields - 2
	a := make([]float64, fields)
	for f := range a {
		for k := 0; k < p; k++ {
			// Rows A, B, then C^k: A with parameter k taken from B.
			x := math.Sin(float64(k)*1.3 + 0.2) // A
			if f == 1 || f == k+2 {
				x = math.Cos(float64(k)*0.7 + 1.1) // B
			}
			a[f] += 0.1 * float64(k+1) * x
		}
	}
	words := make([]uint64, steps*fields*cells)
	for s := 0; s < steps; s++ {
		tau := float64(s) / float64(steps)
		for c := 0; c < cells; c++ {
			x := float64(c) / float64(cells)
			base := 20 + 3*math.Sin(2*math.Pi*1.4*x+0.5+tau) + 1.2*math.Sin(2*math.Pi*3.1*x+2.0-0.8*tau)
			pert := 1 + 0.15*math.Sin(2*math.Pi*1.7*x+1.0+0.3*tau)
			for f := 0; f < fields; f++ {
				words[(s*fields+f)*cells+c] = math.Float64bits(float64(float32(base + a[f]*pert)))
			}
		}
	}
	DeltaXOR(words, steps, fields, cells)
	return words
}

// edgeRunWords builds words whose eight byte planes, after the per-plane
// byte delta, each open and close with a zero run of exactly run bytes
// around a literal stretch that holds one isolated zero: the minZeroRun and
// maxRun edges of the run-length pass at both ends of every plane.
func edgeRunWords(run int) []uint64 {
	const lits = 37
	n := 2*run + lits
	words := make([]uint64, n)
	for b := 0; b < 8; b++ {
		v := byte(0)
		for i := run; i < n; i++ {
			// Literals step by one (delta 1), repeat once mid-run (an
			// isolated zero delta) and hold their last value to the end.
			if i < run+lits && i != run+lits/2 {
				v += 1 + byte(b)
			}
			words[i] |= uint64(v) << (8 * b)
		}
	}
	return words
}

// TestCompressGolden pins the exact compressed bytes of blocks that cover
// every token shape the format has. The compressed form is the wire format a
// peer decodes, so any change to these digests is a protocol change.
func TestCompressGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cases := []struct {
		name  string
		words []uint64
		want  string
	}{
		{"linfield-4x6x8192", linfieldWords(4, 6, 8192),
			"411a3080c3ef71e54e4c27817557a198668a8bbffbaf48ac4c4883a64bea5d87"},
		{"correlated-3x5x333", correlatedWords(3, 5, 333),
			"3d98867204ecc118c004a196eb36c210f6830906aead3882652728c9cf54d3cf"},
		{"random-1001", randomWords(rng, 1001),
			"2002b4e8c402f71d4407b6afab76e3e79848997d43d10bef21db1afaa35aafa5"},
		{"zeros-1000", make([]uint64, 1000),
			"d6fd983c5d520d2c1cff8ea7825477f1575cebec2ffd7e8ca7844bc24c266c90"},
		{"edge-run-1", edgeRunWords(1),
			"a5be8cff3d9d6464e587a048dedef0e2f5d84e05d3384d8698a959a0b23ca2af"},
		{"edge-run-2", edgeRunWords(2),
			"0d04a9411037809143d14c21ebc5a33cb4457934a83052e8818f6ba83dd01347"},
		{"edge-run-128", edgeRunWords(128),
			"775675aba799656a9de70734ec9d93ac27eda1ba4eee09ce979a25a0cf2b86cc"},
		{"edge-run-129", edgeRunWords(129),
			"67dac4c0d79948b85d11006af65ff8e32f785febf4dc477ef4830b4e51594416"},
	}
	var e Encoder
	for _, c := range cases {
		comp := e.Compress(nil, c.words)
		sum := sha256.Sum256(comp)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", c.name, len(comp), got, c.want)
		}
	}
}
