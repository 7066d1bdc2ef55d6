package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// correlatedWords builds a [steps][fields][cells] block shaped like the
// study traffic: a pick-freeze group of p+2 member fields over a smooth
// spatial profile, where the members share their structure (some parameters
// are insensitive, so some C^k fields equal the A field exactly) and
// neighbouring steps drift by a small additive term — the case the
// delta-XOR is designed for. The solver computes in single precision and
// widens to the float64 wire format (the common case for production CFD
// codes), so the low mantissa bytes are exactly zero.
func correlatedWords(steps, fields, cells int) []uint64 {
	p := fields - 2
	// Pick-freeze rows: A, B, then C^k = A with parameter k frozen from B.
	a := make([]float64, p)
	b := make([]float64, p)
	for k := 0; k < p; k++ {
		a[k] = math.Sin(float64(k)*1.7 + 0.3)
		b[k] = math.Cos(float64(k)*2.1 + 0.9)
	}
	rows := make([][]float64, fields)
	rows[0], rows[1] = a, b
	for k := 0; k < p; k++ {
		row := append([]float64(nil), a...)
		row[k] = b[k]
		rows[2+k] = row
	}
	words := make([]uint64, steps*fields*cells)
	for s := 0; s < steps; s++ {
		for f := 0; f < fields; f++ {
			row := rows[f]
			for c := 0; c < cells; c++ {
				x := float64(c) / float64(cells)
				v := math.Sin(row[0] + 2*math.Pi*x)
				if p > 1 {
					v += row[1] * float64(s+1) * 0.1
				}
				if p > 2 {
					v += row[2] * row[0] * 0.05 * float64(c%3)
				}
				words[(s*fields+f)*cells+c] = math.Float64bits(float64(float32(v)))
			}
		}
	}
	return words
}

func randomWords(rng *rand.Rand, n int) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		words[i] = rng.Uint64()
	}
	return words
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][3]int{{1, 1, 1}, {1, 5, 17}, {4, 3, 32}, {8, 8, 100}} {
		steps, fields, cells := shape[0], shape[1], shape[2]
		words := randomWords(rng, steps*fields*cells)
		orig := append([]uint64(nil), words...)
		DeltaXOR(words, steps, fields, cells)
		UndeltaXOR(words, steps, fields, cells)
		for i := range words {
			if words[i] != orig[i] {
				t.Fatalf("shape %v: word %d changed after round trip", shape, i)
			}
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var e Encoder
	var d Decoder
	cases := [][]uint64{
		correlatedWords(8, 8, 128),
		randomWords(rng, 1000),
		make([]uint64, 64), // all zeros
		{0x0102030405060708},
	}
	for ci, words := range cases {
		comp := e.Compress(nil, words)
		if len(comp) > MaxCompressedLen(8*len(words)) {
			t.Fatalf("case %d: %d compressed bytes exceed bound %d",
				ci, len(comp), MaxCompressedLen(8*len(words)))
		}
		if err := Validate(comp, 8*len(words)); err != nil {
			t.Fatalf("case %d: validate: %v", ci, err)
		}
		out := make([]uint64, len(words))
		if err := d.Decompress(out, comp); err != nil {
			t.Fatalf("case %d: decompress: %v", ci, err)
		}
		for i := range words {
			if out[i] != words[i] {
				t.Fatalf("case %d: word %d = %x, want %x", ci, i, out[i], words[i])
			}
		}
	}
}

func TestCorrelatedBlockCompresses(t *testing.T) {
	words := correlatedWords(8, 8, 512)
	DeltaXOR(words, 8, 8, 512)
	var e Encoder
	comp := e.Compress(nil, words)
	raw := 8 * len(words)
	t.Logf("correlated block: %d compressed vs %d raw (%.2fx)",
		len(comp), raw, float64(raw)/float64(len(comp)))
	if len(comp)*2 > raw {
		t.Fatalf("correlated block: %d compressed vs %d raw — want at least 2x", len(comp), raw)
	}
}

// TestCompressDeterministic pins that the same input always produces the
// same bytes — a requirement for the bitwise-equivalence guarantees.
func TestCompressDeterministic(t *testing.T) {
	words := correlatedWords(4, 6, 200)
	var e1, e2 Encoder
	a := e1.Compress(nil, words)
	b := e2.Compress(nil, words)
	if !bytes.Equal(a, b) {
		t.Fatal("compression is not deterministic")
	}
}

// TestValidateMatchesDecompress fuzzes corrupted blocks: whenever Validate
// accepts, Decompress must succeed; whenever Validate rejects, the block must
// have been corrupted (or truncated). Neither may panic.
func TestValidateMatchesDecompress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := correlatedWords(3, 4, 64)
	DeltaXOR(words, 3, 4, 64)
	var e Encoder
	good := e.Compress(nil, words)
	rawLen := 8 * len(words)
	var d Decoder
	out := make([]uint64, len(words))

	if err := Validate(good, rawLen); err != nil {
		t.Fatalf("pristine block rejected: %v", err)
	}

	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), good...)
		switch trial % 4 {
		case 0: // random bit flip
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= 1 << rng.Intn(8)
		case 1: // truncation
			corrupt = corrupt[:rng.Intn(len(corrupt))]
		case 2: // trailing garbage
			corrupt = append(corrupt, byte(rng.Intn(256)))
		case 3: // random overwrite of a window
			pos := rng.Intn(len(corrupt))
			n := min(rng.Intn(16)+1, len(corrupt)-pos)
			rng.Read(corrupt[pos : pos+n])
		}
		err := Validate(corrupt, rawLen)
		if err == nil {
			if derr := d.Decompress(out, corrupt); derr != nil {
				t.Fatalf("trial %d: Validate accepted but Decompress failed: %v", trial, derr)
			}
		}
	}
}

func TestValidateRejectsBadRawLen(t *testing.T) {
	var e Encoder
	comp := e.Compress(nil, randomWords(rand.New(rand.NewSource(5)), 8))
	for _, rawLen := range []int{0, -8, 7, 63} {
		if err := Validate(comp, rawLen); err == nil {
			t.Fatalf("rawLen %d accepted", rawLen)
		}
	}
	// Mismatched (but valid-shape) lengths must also be rejected: four words
	// have no high units for the masks to name, and 65 words need a second
	// chunk. (A block does not carry its word count: an all-zero chunk
	// stands for any number of zero words up to chunkWords.)
	for _, rawLen := range []int{8 * 4, 8 * (chunkWords + 1)} {
		if err := Validate(comp, rawLen); err == nil {
			t.Fatalf("wrong raw length %d accepted", rawLen)
		}
	}
}

func TestCompressWorstCase(t *testing.T) {
	// Incompressible input must stay within the documented expansion bound,
	// for whole chunks and for every short last chunk.
	rng := rand.New(rand.NewSource(4))
	var e Encoder
	for _, n := range []int{4096, 4096 + 1, 4096 + 31, 4096 + 32, 4096 + 33, 4096 + 63} {
		words := randomWords(rng, n)
		comp := e.Compress(nil, words)
		if len(comp) > MaxCompressedLen(8*len(words)) {
			t.Fatalf("%d words: worst case %d exceeds bound %d", n, len(comp), MaxCompressedLen(8*len(words)))
		}
	}
}

func TestFloat64sToWords(t *testing.T) {
	src := []float64{0, 1.5, -2.25, math.Inf(1)}
	dst := make([]uint64, len(src))
	Float64sToWords(dst, src)
	for i, v := range src {
		if dst[i] != math.Float64bits(v) {
			t.Fatalf("word %d mismatch", i)
		}
	}
}
