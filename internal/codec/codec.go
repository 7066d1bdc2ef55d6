// Package codec implements the negotiated wire codec of the data path: a
// delta-XOR transform over float64 bit patterns followed by a byte-plane
// shuffle and a zero-run-length entropy pass. Fields from neighbouring
// timesteps of the same pick-freeze member are highly correlated, so XORing
// each step against its predecessor zeroes the sign, exponent and high
// mantissa bytes of most values; the shuffle groups those now-mostly-zero
// byte planes together and the run-length pass collapses them. Everything is
// a single O(n) sweep with caller-owned scratch — no allocation in steady
// state, no dependency beyond the standard library, and bit-lossless (the
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
	"fmt"
	"unsafe"
)

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

// Encoder holds the compression scratch (one byte plane). The zero value is
// ready to use; scratch grows to the largest block seen and is reused.
type Encoder struct {
	plane []byte
}

// Compress appends the compressed form of words to dst and returns the
// extended slice. The byte-plane shuffle runs per plane (least-significant
// first), so the run-length pass sees each plane's bytes contiguously; runs
// never span planes, which costs at most one token per plane and keeps both
// directions a simple sweep. Each plane is additionally byte-delta coded
// (b[i] − b[i−1] mod 256) before the run-length pass: the exponent planes of
// a spatially smooth field are long runs of one repeated byte, which the
// delta turns into the zero runs ZRLE collapses.
func (e *Encoder) Compress(dst []byte, words []uint64) []byte {
	n := len(words)
	if cap(e.plane) < n {
		e.plane = make([]byte, n)
	}
	plane := e.plane[:n]
	for b := 0; b < 8; b++ {
		shift := uint(8 * b)
		prev := byte(0)
		for i, w := range words {
			v := byte(w >> shift)
			plane[i] = v - prev
			prev = v
		}
		dst = zrleAppend(dst, plane)
	}
	return dst
}

// zrleAppend run-length-encodes one plane onto dst.
func zrleAppend(dst []byte, src []byte) []byte {
	i, n := 0, len(src)
	for i < n {
		// Measure the zero run starting here (possibly empty).
		z := i
		for z < n && src[z] == 0 {
			z++
		}
		if run := z - i; run >= minZeroRun || (run > 0 && z == n) {
			for run > 0 {
				k := run
				if k > maxRun {
					k = maxRun
				}
				dst = append(dst, byte(tokenZeroBit|(k-1)))
				run -= k
			}
			i = z
			continue
		}
		// Literal run: up to the next compressible zero run (or the end),
		// including any single isolated zeros on the way.
		j := z // z == i or i+1 here; singles join the literals
		for j < n {
			if src[j] != 0 {
				j++
				continue
			}
			z = j
			for z < n && src[z] == 0 {
				z++
			}
			if z-j >= minZeroRun || z == n {
				break
			}
			j = z
		}
		for i < j {
			k := j - i
			if k > maxRun {
				k = maxRun
			}
			dst = append(dst, byte(k-1))
			dst = append(dst, src[i:i+k]...)
			i += k
		}
	}
	return dst
}

// Decoder holds the decompression scratch. The zero value is ready to use.
type Decoder struct {
	plane []byte
}

// Decompress expands src into words, which must hold exactly the block's
// word count. It returns an error on any malformed token stream; a block
// that passed Validate never errors.
func (d *Decoder) Decompress(words []uint64, src []byte) error {
	n := len(words)
	if cap(d.plane) < n {
		d.plane = make([]byte, n)
	}
	plane := d.plane[:n]
	off := 0
	for b := 0; b < 8; b++ {
		var err error
		off, err = zrleExpand(plane, src, off)
		if err != nil {
			return fmt.Errorf("codec: plane %d: %w", b, err)
		}
		// Invert the per-plane byte delta (prefix sum) while scattering the
		// plane back into its word lane.
		shift := uint(8 * b)
		acc := byte(0)
		if b == 0 {
			for i, v := range plane {
				acc += v
				words[i] = uint64(acc)
			}
		} else {
			for i, v := range plane {
				acc += v
				words[i] |= uint64(acc) << shift
			}
		}
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	return nil
}

// zrleExpand decodes one plane's worth of bytes from src[off:] into dst and
// returns the new source offset.
func zrleExpand(dst []byte, src []byte, off int) (int, error) {
	out, n := 0, len(dst)
	for out < n {
		if off >= len(src) {
			return 0, fmt.Errorf("truncated token stream")
		}
		t := src[off]
		off++
		run := int(t&0x7f) + 1
		if run > n-out {
			return 0, fmt.Errorf("run of %d overflows plane", run)
		}
		if t&tokenZeroBit != 0 {
			clear(dst[out : out+run])
			out += run
			continue
		}
		if off+run > len(src) {
			return 0, fmt.Errorf("truncated literal run")
		}
		copy(dst[out:out+run], src[off:off+run])
		off += run
		out += run
	}
	return off, nil
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
	planeLen := rawLen / 8
	off := 0
	for b := 0; b < 8; b++ {
		out := 0
		for out < planeLen {
			if off >= len(src) {
				return fmt.Errorf("codec: plane %d: truncated token stream", b)
			}
			t := src[off]
			off++
			run := int(t&0x7f) + 1
			if run > planeLen-out {
				return fmt.Errorf("codec: plane %d: run of %d overflows plane", b, run)
			}
			if t&tokenZeroBit == 0 {
				if off+run > len(src) {
					return fmt.Errorf("codec: plane %d: truncated literal run", b)
				}
				off += run
			}
			out += run
		}
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	return nil
}
