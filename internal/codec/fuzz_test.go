package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkAgainstReference fails t unless Compress writes exactly the
// reference bytes for words and Decompress restores words bit for bit.
func checkAgainstReference(t *testing.T, e *Encoder, d *Decoder, words []uint64) {
	t.Helper()
	prefix := []byte{0xa5} // Compress appends
	got := e.Compress(prefix, words)
	want := refCompress(prefix, words)
	if !bytes.Equal(got, want) {
		t.Fatalf("%d words: Compress differs from the reference (%d vs %d bytes)", len(words), len(got), len(want))
	}
	if len(got)-1 > MaxCompressedLen(8*len(words)) {
		t.Fatalf("%d words: %d compressed bytes exceed bound %d", len(words), len(got)-1, MaxCompressedLen(8*len(words)))
	}
	out := make([]uint64, len(words))
	if err := d.Decompress(out, got[1:]); err != nil {
		t.Fatalf("%d words: Decompress: %v", len(words), err)
	}
	for i := range words {
		if out[i] != words[i] {
			t.Fatalf("%d words: word %d = %#x, want %#x", len(words), i, out[i], words[i])
		}
	}
}

// checkValidate fails t unless Validate accepts src for rawLen exactly when
// the reference decoder does, and an accepted block decompresses without
// error to the reference words.
func checkValidate(t *testing.T, d *Decoder, src []byte, rawLen int) {
	t.Helper()
	want := make([]uint64, rawLen/8)
	refErr := refDecompress(want, src)
	if err := Validate(src, rawLen); (err == nil) != (refErr == nil) {
		t.Fatalf("rawLen %d: Validate error %v, reference decoder error %v", rawLen, err, refErr)
	} else if err != nil {
		return
	}
	got := make([]uint64, len(want))
	if err := d.Decompress(got, src); err != nil {
		t.Fatalf("rawLen %d: Decompress of a validated block: %v", rawLen, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rawLen %d: word %d = %#x, reference %#x", rawLen, i, got[i], want[i])
		}
	}
}

// sparseWords draws n words whose bytes are zero with probability zero,
// runs of the same byte in a plane included (the byte delta zeroes them).
func sparseWords(rng *rand.Rand, n int, zero float64) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		for b := 0; b < 8; b++ {
			v := uint64(rng.Intn(255) + 1)
			switch r := rng.Float64(); {
			case r < zero/2:
				v = 0
			case r < zero && i > 0:
				v = words[i-1] >> (8 * b) & 0xff
			}
			words[i] |= v << (8 * b)
		}
	}
	return words
}

// TestCodecMatchesReference checks the word-wide codec against the
// per-byte reference on ragged lengths and every mix of zero and literal
// bytes, and Validate against the reference decoder on corrupted blocks.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var e Encoder
	var d Decoder
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		if trial%50 == 0 {
			n = rng.Intn(5000)
		}
		words := sparseWords(rng, n, []float64{0, 0.05, 0.3, 0.6, 0.9, 0.99, 1}[trial%7])
		checkAgainstReference(t, &e, &d, words)
		if n == 0 {
			continue
		}
		comp := e.Compress(nil, words)
		pos := rng.Intn(len(comp))
		comp[pos] ^= byte(1 + rng.Intn(255))
		checkValidate(t, &d, comp, 8*n)
		checkValidate(t, &d, comp[:pos], 8*n)
	}
}

// FuzzCodec checks the codec against the per-byte reference. The input
// read as little-endian words must compress to the reference bytes and
// round-trip bit for bit; read as a compressed block of 1+k%2048 words, it
// must be accepted by Validate exactly when the reference decoder accepts
// it, and then decompress to the reference words.
func FuzzCodec(f *testing.F) {
	var e Encoder
	for _, words := range [][]uint64{
		nil,
		{0x0102030405060708},
		correlatedWords(2, 3, 21),
		edgeRunWords(2),
		sparseWords(rand.New(rand.NewSource(7)), 40, 0.6),
	} {
		raw := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(raw[8*i:], w)
		}
		f.Add(raw, uint16(max(len(words), 1)-1))
		f.Add(e.Compress(nil, words), uint16(max(len(words), 1)-1))
	}
	var d Decoder
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		words := make([]uint64, (len(data)+7)/8)
		for i, c := range data {
			words[i/8] |= uint64(c) << (8 * (i % 8))
		}
		checkAgainstReference(t, &e, &d, words)
		checkValidate(t, &d, data, 8*(1+int(k)%2048))
	})
}
