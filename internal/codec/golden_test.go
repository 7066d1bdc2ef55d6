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
	return linfield(steps, fields, cells, func(v float64) float64 { return float64(float32(v)) })
}

// fullPrecisionWords is linfieldWords with the values left unrounded: the
// low mantissa planes, all zero in the float32-widened block, carry data.
func fullPrecisionWords(steps, fields, cells int) []uint64 {
	return linfield(steps, fields, cells, func(v float64) float64 { return v })
}

// linfield builds the linfield block with each value passed through round.
func linfield(steps, fields, cells int, round func(float64) float64) []uint64 {
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
				words[(s*fields+f)*cells+c] = math.Float64bits(round(base + a[f]*pert))
			}
		}
	}
	DeltaXOR(words, steps, fields, cells)
	return words
}

// edgeRunWords builds words whose eight byte planes, after the per-plane
// delta, each open and close with a zero run of exactly run bytes
// around a non-zero stretch that holds one isolated zero, so units at both
// ends of every plane are zero, non-zero, or cut by the run's edge.
func edgeRunWords(run int) []uint64 {
	const lits = 37
	n := 2*run + lits
	words := make([]uint64, n)
	for b := 0; b < 8; b++ {
		v := byte(0)
		for i := run; i < n; i++ {
			// Literals change at every step (a non-zero delta), repeat once
			// mid-run (an isolated zero delta) and hold their last value to
			// the end.
			if i < run+lits && i != run+lits/2 {
				v += 1 + byte(b)
			}
			words[i] |= uint64(v) << (8 * b)
		}
	}
	return words
}

// planeWords builds n words whose byte planes, after the per-plane delta,
// are non-zero exactly in the planes the bits of planes name.
func planeWords(n int, planes byte) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		for b := 0; b < 8; b++ {
			if planes>>b&1 != 0 {
				words[i] |= uint64(byte(i*(i+b)+1)) << (8 * b)
			}
		}
	}
	return words
}

// TestCompressGolden pins the exact compressed bytes of blocks that cover
// every chunk shape the format has: whole and short last chunks (one- and
// two-byte masks), no plane, one plane and every plane present, full and
// partial masks, and the two linfield blocks the benchmarks run. The
// compressed form is the wire format a peer decodes, so any change to these
// digests is a protocol change.
func TestCompressGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	cases := []struct {
		name  string
		words []uint64
		want  string
	}{
		{"linfield-4x6x8192", linfieldWords(4, 6, 8192),
			"01d0a56442f386f5ef7bbe9f09b9f246304424b03587d850d56e8d4cdd75dbd5"},
		{"fullprec-4x6x8192", fullPrecisionWords(4, 6, 8192),
			"8537dbca1cea7035daa58642d2b629cb9d64628a379ae21f040baf5ae7c79b3c"},
		{"correlated-3x5x333", correlatedWords(3, 5, 333),
			"e97ae6f5bd924ad4301b9b1fd118e3bef31155b288704e53eea188c3d4518017"},
		{"random-1001", randomWords(rng, 1001),
			"6ed074b37813f9d1e7e02980b7deb8f717c10901be5c031cc4a4eca2682b50a6"},
		{"zeros-1000", make([]uint64, 1000),
			"374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb"},
		{"plane7-only-129", planeWords(129, 0x80),
			"a1caab051bfae3ab5e86022e220d0e7619671c88f8389daa6f35a5a32cab676c"},
		{"planes-0-and-5-32", planeWords(32, 0x21),
			"4d5ae7a8363434eadb5a014a8c486b56675dd8e3e5bd2f667a6d79923778e617"},
		{"all-planes-33", planeWords(33, 0xff),
			"468796b2345ceedc4df9c1864b86da87b1fd71befc9136c8e3e4d9036fbe9c5b"},
		{"edge-run-1", edgeRunWords(1),
			"c6b4e5f5913f44939ab339c24ef71d6a668dd6923e0c145afb544ecbabccddd7"},
		{"edge-run-2", edgeRunWords(2),
			"c3dc7648d13818d887cbf369b81bd6e5a7522d621d3788a844e16597c394777b"},
		{"edge-run-128", edgeRunWords(128),
			"abd6c51d80b73ba0c955ec2205e59304ba4cd60ad1aa7a10ea014c2c229914ab"},
		{"edge-run-129", edgeRunWords(129),
			"9867f389ee7abc649e0c822c53808b3e5fc513394bbd04e64c7cca9b9104e26e"},
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
