package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
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
// runs of the same byte in a plane included (the plane delta zeroes them).
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

// TestCodecMatchesReference checks the transposing codec against the
// unit-at-a-time reference on every word count of one to two chunks and a
// short tail, on ragged lengths with every mix of zero and non-zero bytes,
// and on the chunk shapes by name; and Validate against the reference
// decoder on corrupted blocks and on hand-made headers that must fail.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var e Encoder
	var d Decoder
	densities := []float64{0, 0.05, 0.3, 0.6, 0.9, 0.99, 1}
	for n := 1; n <= 2*chunkWords+1; n++ {
		for _, zero := range densities {
			checkAgainstReference(t, &e, &d, sparseWords(rng, n, zero))
		}
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		if trial%50 == 0 {
			n = rng.Intn(5000)
		}
		words := sparseWords(rng, n, densities[trial%7])
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

	// The presence byte of a chunk with no plane, only plane 7 and every
	// plane present.
	for _, c := range []struct {
		words   []uint64
		present byte
	}{
		{make([]uint64, chunkWords), 0},
		{planeWords(chunkWords, 0x80), 0x80},
		{randomWords(rng, chunkWords), 0xff},
	} {
		checkAgainstReference(t, &e, &d, c.words)
		if comp := e.Compress(nil, c.words); comp[0] != c.present {
			t.Fatalf("presence byte %#02x, want %#02x", comp[0], c.present)
		}
	}

	// Hand-made headers: each block is rejected by Validate, with an error
	// that names the check, and by the reference; or (the last one)
	// accepted by both.
	unit := []byte{1, 2, 3, 4}
	for _, c := range []struct {
		name  string
		words int
		block []byte
		err   string // "" for a block both accept
	}{
		// Plane 0 of a whole chunk claims 16 units; 15 follow.
		{"popcount overruns the block", chunkWords,
			append([]byte{0x01, 0xff, 0xff}, bytes.Repeat(unit, 15)...), "overrun"},
		// Five words have two units per plane; the mask names a third.
		{"mask bit past the tail", 5, append([]byte{0x01, 0x05}, bytes.Repeat(unit, 2)...), "outside"},
		// Thirty-two words have one-byte masks: a second byte is trailing.
		{"two-byte mask on a short chunk", 32, append([]byte{0x01, 0x01, 0x00}, unit...), "trailing"},
		{"present plane with an empty mask", 8, []byte{0x01, 0x00}, "outside"},
		{"truncated masks", chunkWords, []byte{0x03, 0x01, 0x00, 0x01}, "truncated masks"},
		{"no header for the second chunk", chunkWords + 1, []byte{0x00}, "truncated header"},
		// Bytes 5–7 of plane 0 lie past the five words and are ignored.
		{"partial unit", 5, []byte{0x01, 0x03, 1, 2, 3, 4, 5, 6, 7, 8}, ""},
	} {
		err := Validate(c.block, 8*c.words)
		if (err == nil) != (c.err == "") || err != nil && !strings.Contains(err.Error(), c.err) {
			t.Fatalf("%s: Validate error %v, want %q", c.name, err, c.err)
		}
		checkValidate(t, &d, c.block, 8*c.words)
	}
}

// TestMaxExpansionBound pins MaxExpansion as a true bound on the cheapest
// blocks there are: all-zero words cost one presence byte per chunk.
func TestMaxExpansionBound(t *testing.T) {
	var e Encoder
	for n := 8; n <= 1<<16; n *= 2 {
		for _, m := range []int{n - 1, n, n + 1} {
			words := make([]uint64, m)
			comp := e.Compress(nil, words)
			if 8*m > MaxExpansion*len(comp) {
				t.Fatalf("%d zero words: %d compressed bytes stand for more than %d raw bytes each",
					m, len(comp), MaxExpansion)
			}
			if err := Validate(comp, 8*m); err != nil {
				t.Fatalf("%d zero words: %v", m, err)
			}
		}
	}
}

// FuzzCodec checks the codec against the unit-at-a-time reference. The input
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
		planeWords(chunkWords+5, 0x80),
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
