// Package codec implements the negotiated wire codec of the data path: a
// delta-XOR transform over float64 bit patterns followed by a byte-plane
// transpose and a chunked zero-unit pass. Fields from neighbouring
// timesteps of the same pick-freeze member are highly correlated, so XORing
// each step against its predecessor zeroes the sign, exponent and high
// mantissa bytes of most values; seen as byte planes (all byte 0s, then all
// byte 1s, …) and delta coded along each plane, those bytes become runs of
// zero units,
// which a chunk of 64 words records as a presence byte and one bit per
// 4-byte unit instead of storing them. Each side is one streaming pass:
// eight words at a time are differenced and byte-transposed in registers,
// and their plane words' units go straight to or come straight from the
// block — no plane scratch, no allocation in steady state, no dependency
// beyond the standard library, one code path on every host, and
// bit-lossless (the float values round-trip exactly, so folded statistics
// stay bitwise identical to the raw wire format).
//
// A compressed block is self-contained: the delta references live entirely
// inside the block (step s against step s-1 of the same block; the fields of
// step 0 against field 0 of step 0), never against earlier messages, so the
// server holds no per-connection history and replayed or reordered messages
// decode exactly like fresh ones.
//
// Validate walks the chunk headers of a compressed block — exact source
// consumption for the block's word count, no writes, O(n/64) — so receivers
// can reject a malformed block at parse time and treat every later
// Decompress as infallible.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
)

var le = binary.LittleEndian

// DeltaXOR applies the in-place forward delta over words, laid out as
// [step][field][cell] with the given shape. Two references exploit the two
// correlations of the pick-freeze traffic:
//
//   - fields f ≥ 1 of every step XOR against field 0 (the A-member) of the
//     same step — members differ in one (or a few) parameter rows, so a
//     low-sensitivity parameter makes its C^k field byte-identical to A and
//     the XOR zeroes it entirely;
//   - field 0 of step s XORs against field 0 of step s−1 — neighbouring
//     timesteps of one simulation share sign, exponent and high mantissa.
//
// Member deltas run before the time delta consumes the original field-0
// values, which makes the transform trivially invertible (UndeltaXOR).
func DeltaXOR(words []uint64, steps, fields, cells int) {
	for s := 0; s < steps; s++ {
		base := words[s*fields*cells : s*fields*cells+cells]
		for f := 1; f < fields; f++ {
			cur := words[(s*fields+f)*cells : (s*fields+f+1)*cells]
			for i, b := range base {
				cur[i] ^= b
			}
		}
	}
	for s := steps - 1; s >= 1; s-- {
		prev := words[(s-1)*fields*cells : (s-1)*fields*cells+cells]
		cur := words[s*fields*cells : s*fields*cells+cells]
		for i, p := range prev {
			cur[i] ^= p
		}
	}
}

// UndeltaXOR inverts DeltaXOR in place over the same layout.
func UndeltaXOR(words []uint64, steps, fields, cells int) {
	for s := 1; s < steps; s++ {
		prev := words[(s-1)*fields*cells : (s-1)*fields*cells+cells]
		cur := words[s*fields*cells : s*fields*cells+cells]
		for i, p := range prev {
			cur[i] ^= p
		}
	}
	for s := 0; s < steps; s++ {
		base := words[s*fields*cells : s*fields*cells+cells]
		for f := 1; f < fields; f++ {
			cur := words[(s*fields+f)*cells : (s*fields+f+1)*cells]
			for i, b := range base {
				cur[i] ^= b
			}
		}
	}
}

// Float64sToWords copies the bit patterns of src into dst[:len(src)] — the
// lossless boundary between the solver's float fields and the XOR domain.
func Float64sToWords(dst []uint64, src []float64) {
	copy(dst, wordsOf(src))
}

// WordsToFloat64s is the inverse boundary: it reinterprets the bit patterns
// of src into dst[:len(src)]. Because both directions move raw bits, a
// value survives the codec bit-for-bit (including NaN payloads and signed
// zeros) and the folded statistics stay bitwise identical to the raw path.
func WordsToFloat64s(dst []float64, src []uint64) {
	copy(dst, AsFloat64s(src))
}

// AsFloat64s reinterprets words as the float64s whose bit patterns they
// hold, in place: the zero-copy form of WordsToFloat64s, valid for as long
// as words is. A uint64 and a float64 share size, alignment and byte order
// on every host, so the reinterpretation is exact everywhere.
func AsFloat64s(words []uint64) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(words))), len(words))
}

// wordsOf is AsFloat64s the other way round.
func wordsOf(vs []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs))
}

// Chunk format. The words are coded in chunks of chunkWords (the last chunk
// may be shorter), and a chunk in groups of eight words. Seen through the
// byte-plane transpose, a group is eight plane words (byte b of each of its
// words, one byte per word), and a plane word is two units of unitBytes: the
// low unit holds the group's words 0–3, the high unit words 4–7. A chunk is
//
//	presence u8 | a unit mask per present plane | the non-zero units
//
// Bit b of the presence byte says plane b has a non-zero unit; bit 2j+h of
// its little-endian mask says unit h of group j is non-zero. A mask has a
// bit for each unit that holds a word of the chunk, rounded up to whole
// bytes: two bytes, or one in a last chunk of at most 32 words. The units
// follow group by group, plane by plane, low before high: the order in
// which a transpose of each group yields them. The bytes of a last, partial
// unit past the chunk's end are zero when written and ignored when read.
const (
	chunkWords = 64
	unitBytes  = 4
	maxHeader  = 1 + 2*8
)

// MaxExpansion bounds the raw bytes one compressed byte can stand for: a
// chunk of at most 8·chunkWords raw bytes costs at least its presence byte,
// so a block that validates against rawLen is at least rawLen/MaxExpansion
// bytes long. Parsers check a frame's claimed raw size against it before
// they allocate for it.
const MaxExpansion = 8 * chunkWords

// MaxCompressedLen bounds the compressed size of n raw bytes: a whole chunk
// costs at most its full header on top of its bytes, and the short last
// chunk also rounds each plane up to whole units (three bytes per plane).
// The bound is subadditive, so k blocks of n_i bytes fit in
// MaxCompressedLen(Σn_i) + (k−1)·MaxCompressedLen(0).
func MaxCompressedLen(n int) int {
	return n + maxHeader*(n/MaxExpansion) + maxHeader + 8*(unitBytes-1)
}

// Encoder compresses blocks. It holds no state.
type Encoder struct{}

// Compress appends the compressed form of words to dst and returns the
// extended slice. Each byte plane is delta coded by XOR (b[i] ^ b[i−1],
// across chunks too; over all planes at once that is words[i] ^
// words[i−1]): the exponent planes of a spatially smooth field are long
// runs of one repeated byte, which the delta turns into the zero units the
// masks drop.
func (e *Encoder) Compress(dst []byte, words []uint64) []byte {
	at, bound := len(dst), MaxCompressedLen(8*len(words))
	// Units are stored as whole words, so keep 8 bytes of slack past the bound.
	dst = slices.Grow(dst, bound+8)[:at+bound+8]
	prev := uint64(0) // the word before the chunk
	var pad [chunkWords]uint64
	for c := 0; c < len(words); c += chunkWords {
		w := &pad
		if len(words)-c >= chunkWords {
			w = (*[chunkWords]uint64)(words[c:])
		} else { // a short last chunk repeats its last word: zero differences
			for i := copy(pad[:], words[c:]); i < chunkWords; i++ {
				pad[i] = words[len(words)-1]
			}
		}
		at = compressChunk(dst, at, w, prev, maskBytes(len(words)-c))
		prev = w[chunkWords-1]
	}
	return dst[:at]
}

// maskBytes is the mask width of a chunk that starts words words before the
// end of its block: one byte holds the 8 units of 32 words.
func maskBytes(words int) int { return 1 + min(words-1, 32)/32 }

// highBits is the high bit of every byte of a word.
const highBits = 0x8080808080808080

// The swap masks of the three transpose stages.
const m32, m16, m8 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff

// swap4 exchanges the bits of each xk under m<<s with those of yk under m.
// Three such stages, swapping 4×4, 2×2 and 1×1 blocks across the diagonal,
// transpose the 8×8 byte matrix whose row j is the word aj (byte k of aj in
// column k): afterwards byte j of ak is the old byte k of aj, so plane
// words come out of words and back. Byte k of a word is bits 8k..8k+7, so
// the result does not depend on the host's byte order.
func swap4(x0, x1, x2, x3, y0, y1, y2, y3 uint64, s uint, m uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	t0, t1, t2, t3 := (x0>>s^y0)&m, (x1>>s^y1)&m, (x2>>s^y2)&m, (x3>>s^y3)&m
	return x0 ^ t0<<s, x1 ^ t1<<s, x2 ^ t2<<s, x3 ^ t3<<s, y0 ^ t0, y1 ^ t1, y2 ^ t2, y3 ^ t3
}

// nonZeroBytes returns a word whose bit 8b is set exactly when byte b of x
// is non-zero: adding 0x7f to a byte's low seven bits carries into its high
// bit unless they are all zero.
func nonZeroBytes(x uint64) uint64 {
	return ((x&^highBits + ^uint64(highBits)) | x) >> 7 & (highBits >> 7)
}

// A plane word's two mask bits k select its units: none, the low, the high
// or both. unitShift moves a high unit alone to the low end (and back),
// unitKeep keeps of a whole-word read what the units hold, unitLen is their
// size.
var (
	unitShift = [4]uint8{0, 0, 32, 0}
	unitKeep  = [4]uint64{0, m32, ^uint64(0), ^uint64(0)}
	unitLen   = [4]int{0, 4, 4, 8}
)

// compressChunk writes the chunk w that follows the word prev into dst[at:],
// which must have room for it plus 8 bytes, and returns the new end. A
// first pass finds the non-zero units: unit h of group j in plane b is
// byte b of the OR of its four word deltas (w[i] ^ w[i−1]). The second
// transposes the deltas of eight words at a time in registers into plane
// words and appends the units the masks select.
func compressChunk(dst []byte, at int, w *[chunkWords]uint64, prev uint64, mb int) int {
	var x [2]uint64 // byte b of x[i]: bits 8i..8i+7 of plane b's mask
	p := prev
	for j := 0; j < 8; j++ {
		g := (*[8]uint64)(w[8*j:])
		lo := (g[0] ^ p) | (g[1] ^ g[0]) | (g[2] ^ g[1]) | (g[3] ^ g[2])
		hi := (g[4] ^ g[3]) | (g[5] ^ g[4]) | (g[6] ^ g[5]) | (g[7] ^ g[6])
		p = g[7]
		x[j>>2&1] |= (nonZeroBytes(lo) | nonZeroBytes(hi)<<1) << (2 * (j & 3))
	}
	var mask [8]uint64
	h := at + 1
	present := 0
	for b := range mask {
		mask[b] = x[0]>>(8*b)&0xff | x[1]>>(8*b)&0xff<<8
		if mask[b] != 0 {
			present |= 1 << b
			le.PutUint16(dst[h:], uint16(mask[b])) // a one-byte mask's zero high byte is overwritten
			h += mb
		}
	}
	dst[at] = byte(present)
	at = h
	for j := 0; j < 8; j++ {
		g := (*[8]uint64)(w[8*j:])
		a0, a1, a2, a3, a4, a5, a6, a7 := g[0]^prev, g[1]^g[0], g[2]^g[1], g[3]^g[2], g[4]^g[3], g[5]^g[4], g[6]^g[5], g[7]^g[6]
		prev = g[7]
		a0, a1, a2, a3, a4, a5, a6, a7 = swap4(a0, a1, a2, a3, a4, a5, a6, a7, 32, m32)
		a0, a1, a4, a5, a2, a3, a6, a7 = swap4(a0, a1, a4, a5, a2, a3, a6, a7, 16, m16)
		a0, a2, a4, a6, a1, a3, a5, a7 = swap4(a0, a2, a4, a6, a1, a3, a5, a7, 8, m8)
		a := [8]uint64{a0, a1, a2, a3, a4, a5, a6, a7}
		for q := present; q != 0; q &= q - 1 {
			b := bits.TrailingZeros(uint(q)) & 7
			k := mask[b] >> (2 * j) & 3
			le.PutUint64(dst[at:], a[b]>>unitShift[k])
			at += unitLen[k]
		}
	}
	return at
}

// Decoder decompresses blocks. It holds no state.
type Decoder struct{}

// Decompress expands src into words, which must hold exactly the block's
// word count. It returns an error on any malformed block, and words then
// hold a partial decode; a block that passed Validate never errors.
func (d *Decoder) Decompress(words []uint64, src []byte) error {
	prev, off := uint64(0), 0 // the word before the chunk, the chunk's offset
	for c := 0; c < len(words); c += chunkWords {
		present, mask, at, end, err := chunkHeader(src, off, c, len(words))
		if err != nil {
			return err
		}
		s := src[at:]
		if len(s) < 8*chunkWords+8 {
			// Units are read as whole words: give the last chunks slack.
			var buf [8*chunkWords + 16]byte
			s = buf[:copy(buf[:], s)+8]
		}
		if len(words)-c >= chunkWords {
			decompressChunk((*[chunkWords]uint64)(words[c:]), s, present, &mask, prev)
		} else {
			var pad [chunkWords]uint64
			decompressChunk(&pad, s, present, &mask, prev)
			copy(words[c:], pad[:])
		}
		prev = words[min(c+chunkWords, len(words))-1]
		off = end
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	return nil
}

// decompressChunk decodes the units that s starts with into the chunk w,
// given its presence byte and masks and the word prev before it. s must
// extend 8 bytes past the units: they are read as whole words. Eight plane
// words at a time are pulled from the units the masks select (a zero where
// they select none), transposed back into word deltas and XOR-summed into
// words.
func decompressChunk(w *[chunkWords]uint64, s []byte, present byte, mask *[8]uint64, prev uint64) {
	at := 0
	for j := 0; j < 8; j++ {
		var a [8]uint64
		for q := present; q != 0; q &= q - 1 {
			b := bits.TrailingZeros8(q) & 7
			k := mask[b] >> (2 * j) & 3
			a[b] = le.Uint64(s[at:]) << unitShift[k] & unitKeep[k]
			at += unitLen[k]
		}
		a0, a1, a2, a3, a4, a5, a6, a7 := swap4(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], 32, m32)
		a0, a1, a4, a5, a2, a3, a6, a7 = swap4(a0, a1, a4, a5, a2, a3, a6, a7, 16, m16)
		a0, a2, a4, a6, a1, a3, a5, a7 = swap4(a0, a2, a4, a6, a1, a3, a5, a7, 8, m8)
		a0 ^= prev
		a1 ^= a0
		a2 ^= a1
		a3 ^= a2
		a4 ^= a3
		a5 ^= a4
		a6 ^= a5
		a7 ^= a6
		g := (*[8]uint64)(w[8*j:]) // stored word by word: an array store goes through the stack
		g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7] = a0, a1, a2, a3, a4, a5, a6, a7
		prev = a7
	}
}

// Validate checks a compressed block without decoding it: rawLen must be a
// positive multiple of 8, and the chunk headers must describe exactly
// len(src) bytes over rawLen/8 words. It reads only the headers. Decompress
// checks the same headers, so a block accepted here cannot make it fail:
// receivers validate once at parse time and decompress later on a path with
// no error reporting.
func Validate(src []byte, rawLen int) error {
	if rawLen <= 0 || rawLen%8 != 0 {
		return fmt.Errorf("codec: invalid raw length %d", rawLen)
	}
	off := 0
	for c := 0; c < rawLen/8; c += chunkWords {
		_, _, _, end, err := chunkHeader(src, off, c, rawLen/8)
		if err != nil {
			return err
		}
		off = end
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	return nil
}

// chunkHeader checks the header at src[off:] of the chunk at word c of a
// block of n words, and returns its presence byte, its masks, and the
// offsets of its units and of its end. A mask must be non-zero and name
// only units that hold a word of the chunk, and the units must fit in src.
func chunkHeader(src []byte, off, c, n int) (present byte, mask [8]uint64, at, end int, err error) {
	if off >= len(src) {
		return 0, mask, 0, 0, fmt.Errorf("codec: chunk at word %d: truncated header", c)
	}
	present, at = src[off], off+1
	mb := maskBytes(n - c)
	if mb*bits.OnesCount8(present) > len(src)-at {
		return 0, mask, 0, 0, fmt.Errorf("codec: chunk at word %d: truncated masks", c)
	}
	valid := uint64(1)<<((min(n-c, chunkWords)+unitBytes-1)/unitBytes) - 1
	units := 0
	for q := present; q != 0; q &= q - 1 {
		b := bits.TrailingZeros8(q) & 7
		mask[b] = uint64(src[at])
		if mb == 2 {
			mask[b] |= uint64(src[at+1]) << 8
		}
		at += mb
		if mask[b] == 0 || mask[b]&^valid != 0 {
			return 0, mask, 0, 0, fmt.Errorf("codec: chunk at word %d: plane %d mask %#04x outside %#04x", c, b, mask[b], valid)
		}
		units += bits.OnesCount64(mask[b])
	}
	if unitBytes*units > len(src)-at {
		return 0, mask, 0, 0, fmt.Errorf("codec: chunk at word %d: %d units overrun the block", c, units)
	}
	return present, mask, at, at + unitBytes*units, nil
}
