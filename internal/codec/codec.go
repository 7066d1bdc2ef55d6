// Package codec implements the negotiated wire codec of the data path: a
// delta-XOR transform over float64 bit patterns followed by a byte-plane
// shuffle and a zero-run-length entropy pass. Fields from neighbouring
// timesteps of the same pick-freeze member are highly correlated, so XORing
// each step against its predecessor zeroes the sign, exponent and high
// mantissa bytes of most values; the shuffle groups those now-mostly-zero
// byte planes together and the run-length pass collapses them. The shuffle
// is one blocked pass (eight words byte-transposed in registers at a time)
// and the run-length pass scans a word at a time, both over caller-owned
// scratch — no allocation in steady state, no dependency beyond the
// standard library, one code path on every host, and bit-lossless (the
// float values round-trip exactly, so folded statistics stay bitwise
// identical to the raw wire format).
//
// A compressed block is self-contained: the delta references live entirely
// inside the block (step s against step s-1 of the same block; the fields of
// step 0 against field 0 of step 0), never against earlier messages, so the
// server holds no per-connection history and replayed or reordered messages
// decode exactly like fresh ones.
//
// Validate performs a pure token scan of a compressed block — exact source
// consumption, exact output size, no writes — so receivers can reject a
// malformed block at parse time and treat every later Decompress as
// infallible.
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

// ZRLE token format: one token byte t per run. t with the high bit set
// encodes a run of (t&0x7f)+1 zero bytes (1..128 zeros per token byte);
// t with the high bit clear encodes t+1 literal bytes (1..128) that follow
// the token verbatim. Zero runs shorter than minZeroRun are folded into the
// surrounding literals so isolated zeros never split a literal run.
const (
	tokenZeroBit = 0x80
	maxRun       = 128
	minZeroRun   = 2
)

// MaxExpansion bounds the raw bytes one compressed byte can stand for: a
// token byte expands to at most maxRun bytes, so a block that validates
// against rawLen is at least rawLen/MaxExpansion bytes long. Parsers check a
// frame's claimed raw size against it before they allocate for it.
const MaxExpansion = maxRun

// MaxCompressedLen bounds the compressed size of n raw bytes: literal input
// costs one token byte per 128 literals, and each of the 8 byte planes may
// additionally open with a short literal chunk (a lone literal byte costs two
// output bytes, but a second literal run in the same plane is only reachable
// across a zero run that more than pays for its own token).
func MaxCompressedLen(n int) int {
	return n + n/maxRun + 2*8
}

// Encoder holds the compression scratch (the block's eight byte planes).
// The zero value is ready to use; scratch grows to the largest block seen.
type Encoder struct {
	planes []byte
}

// Compress appends the compressed form of words to dst and returns the
// extended slice. The byte-plane shuffle lays the planes out one after the
// other (least-significant first), so the run-length pass sees each plane's
// bytes contiguously; runs never span planes, which costs at most one token
// per plane. Each plane is additionally byte-delta coded (b[i] − b[i−1] mod
// 256) before the run-length pass: the exponent planes of a spatially
// smooth field are long runs of one repeated byte, which the delta turns
// into the zero runs ZRLE collapses.
func (e *Encoder) Compress(dst []byte, words []uint64) []byte {
	n := len(words)
	if cap(e.planes) < 8*n {
		e.planes = make([]byte, 8*n)
	}
	planes := e.planes[:8*n]
	shuffle(planes, words)
	at, bound := len(dst), MaxCompressedLen(8*n)
	dst = slices.Grow(dst, bound)[:at+bound]
	for b := 0; b < 8; b++ {
		at = zrleAppend(dst, at, planes[b*n:(b+1)*n])
	}
	return dst[:at]
}

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

// byteSub returns x − y computed bytewise mod 256: the high bits are masked
// off so no borrow crosses a byte, then put back by XOR.
func byteSub(x, y uint64) uint64 {
	return ((x | highBits) - (y &^ highBits)) ^ ((x ^ ^y) & highBits)
}

// byteAdd returns x + y computed bytewise mod 256.
func byteAdd(x, y uint64) uint64 {
	return ((x &^ highBits) + (y &^ highBits)) ^ ((x ^ y) & highBits)
}

// shuffle writes the byte-delta-coded planes of words into planes: plane b,
// at planes[b*n:(b+1)*n], holds byte b of every word minus byte b of the
// word before it, which is byte b of the bytewise difference of the two
// words. Eight such differences at a time are transposed in registers, and
// each plane word is stored in one explicit little-endian write.
func shuffle(planes []byte, words []uint64) {
	n := len(words)
	prev := uint64(0) // the word before words[i]
	i := 0
	for ; i+8 <= n; i += 8 {
		w := words[i : i+8 : i+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := byteSub(w[0], prev), byteSub(w[1], w[0]),
			byteSub(w[2], w[1]), byteSub(w[3], w[2]), byteSub(w[4], w[3]),
			byteSub(w[5], w[4]), byteSub(w[6], w[5]), byteSub(w[7], w[6])
		prev = w[7]
		a0, a1, a2, a3, a4, a5, a6, a7 = swap4(a0, a1, a2, a3, a4, a5, a6, a7, 32, m32)
		a0, a1, a4, a5, a2, a3, a6, a7 = swap4(a0, a1, a4, a5, a2, a3, a6, a7, 16, m16)
		a0, a2, a4, a6, a1, a3, a5, a7 = swap4(a0, a2, a4, a6, a1, a3, a5, a7, 8, m8)
		for b, p := range [8]uint64{a0, a1, a2, a3, a4, a5, a6, a7} {
			le.PutUint64(planes[b*n+i:], p)
		}
	}
	for ; i < n; i++ {
		d := byteSub(words[i], prev)
		prev = words[i]
		for b := 0; b < 8; b++ {
			planes[b*n+i] = byte(d >> (8 * b))
		}
	}
}

// unshuffle inverts shuffle: it transposes eight plane words at a time back
// into word differences and sums them bytewise into words.
func unshuffle(words []uint64, planes []byte) {
	n := len(words)
	prev := uint64(0) // words[i-1]
	i := 0
	for ; i+8 <= n; i += 8 {
		a0, a1, a2, a3, a4, a5, a6, a7 := le.Uint64(planes[i:]), le.Uint64(planes[n+i:]),
			le.Uint64(planes[2*n+i:]), le.Uint64(planes[3*n+i:]), le.Uint64(planes[4*n+i:]),
			le.Uint64(planes[5*n+i:]), le.Uint64(planes[6*n+i:]), le.Uint64(planes[7*n+i:])
		a0, a1, a2, a3, a4, a5, a6, a7 = swap4(a0, a1, a2, a3, a4, a5, a6, a7, 32, m32)
		a0, a1, a4, a5, a2, a3, a6, a7 = swap4(a0, a1, a4, a5, a2, a3, a6, a7, 16, m16)
		a0, a2, a4, a6, a1, a3, a5, a7 = swap4(a0, a2, a4, a6, a1, a3, a5, a7, 8, m8)
		w := words[i : i+8 : i+8]
		w[0] = byteAdd(prev, a0)
		w[1] = byteAdd(w[0], a1)
		w[2] = byteAdd(w[1], a2)
		w[3] = byteAdd(w[2], a3)
		w[4] = byteAdd(w[3], a4)
		w[5] = byteAdd(w[4], a5)
		w[6] = byteAdd(w[5], a6)
		w[7] = byteAdd(w[6], a7)
		prev = w[7]
	}
	for ; i < n; i++ {
		var d uint64
		for b := 0; b < 8; b++ {
			d |= uint64(planes[b*n+i]) << (8 * b)
		}
		prev = byteAdd(prev, d)
		words[i] = prev
	}
}

// zrleAppend run-length-encodes one plane into dst[at:], which must have
// room for it (MaxCompressedLen), and returns the new end. The runs are
// found a word at a time (nonZeroFrom, literalEnd); the tokens are those of
// a byte-at-a-time scan.
func zrleAppend(dst []byte, at int, src []byte) int {
	n := len(src)
	i, z := 0, nonZeroFrom(src, 0) // [i, z) is the zero run at i
	for i < n {
		if run := z - i; run >= minZeroRun || (run > 0 && z == n) {
			for ; run > maxRun; run -= maxRun {
				dst[at] = tokenZeroBit | (maxRun - 1)
				at++
			}
			dst[at] = byte(tokenZeroBit | (run - 1))
			at++
			i = z
			continue
		}
		// Literal run: up to the next compressible zero run (or the end),
		// including any single isolated zeros on the way; z == i or i+1
		// here, and a lone zero at i joins the literals too.
		j := literalEnd(src, z)
		z = nonZeroFrom(src, j)
		for i < j {
			k := min(j-i, maxRun)
			dst[at] = byte(k - 1)
			copy(dst[at+1:at+1+k], src[i:i+k])
			at += 1 + k
			i += k
		}
	}
	return at
}

// nonZeroFrom returns the index of the first non-zero byte of src at or
// after i, or len(src).
func nonZeroFrom(src []byte, i int) int {
	for ; i+8 <= len(src); i += 8 {
		if w := le.Uint64(src[i:]); w != 0 {
			return i + bits.TrailingZeros64(w)/8
		}
	}
	for i < len(src) && src[i] == 0 {
		i++
	}
	return i
}

// literalEnd returns where a literal run that reaches j ends: at the first
// zero byte at or after j that starts a run of minZeroRun zeros or is the
// last byte of src, or at len(src). zero flags exactly the zero bytes of a
// word: adding 0x7f to a byte's low seven bits sets its high bit unless
// they are all zero, and OR-ing in the byte clears it only for a zero byte.
func literalEnd(src []byte, j int) int {
	const low7 = ^uint64(highBits)
	n := len(src)
	for ; j+8 < n; j += 8 {
		w := le.Uint64(src[j:])
		zero := ^((w&low7 + low7) | w) & highBits
		next := (uint64(src[j+8]) - 1) & (1 << 63) // the following byte is zero
		if pair := zero & (zero>>8 | next); pair != 0 {
			return j + bits.TrailingZeros64(pair)/8
		}
	}
	for ; j < n; j++ {
		if src[j] == 0 && (j+1 == n || src[j+1] == 0) {
			return j
		}
	}
	return n
}

// Decoder holds the decompression scratch (the block's eight byte planes).
// The zero value is ready to use.
type Decoder struct {
	planes []byte
}

// Decompress expands src into words, which must hold exactly the block's
// word count. It returns an error on any malformed token stream, and then
// leaves words untouched; a block that passed Validate never errors.
func (d *Decoder) Decompress(words []uint64, src []byte) error {
	n := len(words)
	if cap(d.planes) < 8*n {
		d.planes = make([]byte, 8*n)
	}
	if err := expand(d.planes[:8*n], n, src); err != nil {
		return err
	}
	unshuffle(words, d.planes[:8*n])
	return nil
}

// Validate token-scans a compressed block without writing anything: the
// stream must expand to exactly rawLen bytes (8 planes of rawLen/8) and
// consume exactly len(src) source bytes. rawLen must be a multiple of 8.
// A block accepted here cannot make Decompress fail, so receivers may
// validate once at parse time and decompress later on a path with no error
// reporting.
func Validate(src []byte, rawLen int) error {
	if rawLen <= 0 || rawLen%8 != 0 {
		return fmt.Errorf("codec: invalid raw length %d", rawLen)
	}
	return expand(nil, rawLen/8, src)
}

// expand decodes the eight planes of n bytes each that src holds into
// planes, or with planes nil only checks that src decodes: Decompress and
// Validate read the tokens with the same loop, so they accept the same
// blocks.
func expand(planes []byte, n int, src []byte) error {
	off := 0
	for b := 0; b < 8; b++ {
		for out, end := b*n, (b+1)*n; out < end; {
			if off >= len(src) {
				return fmt.Errorf("codec: plane %d: truncated token stream", b)
			}
			t := src[off]
			off++
			run := int(t&0x7f) + 1
			if run > end-out {
				return fmt.Errorf("codec: plane %d: run of %d overflows plane", b, run)
			}
			if t&tokenZeroBit == 0 {
				if off+run > len(src) {
					return fmt.Errorf("codec: plane %d: truncated literal run", b)
				}
				if planes != nil {
					copy(planes[out:out+run], src[off:off+run])
				}
				off += run
			} else if planes != nil {
				clear(planes[out : out+run])
			}
			out += run
		}
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	return nil
}
