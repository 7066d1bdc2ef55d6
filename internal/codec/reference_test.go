package codec

import "fmt"

// The per-byte reference codec: one pass per byte plane, a byte-at-a-time
// run-length scan, and a per-plane prefix sum scattered back into the
// words. It defines the wire bytes; the word-wide production loops must
// match it byte for byte (FuzzCodec, TestCodecMatchesReference).

// refCompress is the reference Encoder.Compress.
func refCompress(dst []byte, words []uint64) []byte {
	n := len(words)
	plane := make([]byte, n)
	for b := 0; b < 8; b++ {
		shift := uint(8 * b)
		prev := byte(0)
		for i, w := range words {
			v := byte(w >> shift)
			plane[i] = v - prev
			prev = v
		}
		dst = refZRLEAppend(dst, plane)
	}
	return dst
}

// refZRLEAppend run-length-encodes one plane onto dst.
func refZRLEAppend(dst []byte, src []byte) []byte {
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

// refDecompress is the reference Decoder.Decompress.
func refDecompress(words []uint64, src []byte) error {
	n := len(words)
	plane := make([]byte, n)
	off := 0
	for b := 0; b < 8; b++ {
		var err error
		off, err = refZRLEExpand(plane, src, off)
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

// refZRLEExpand decodes one plane's worth of bytes from src[off:] into dst
// and returns the new source offset.
func refZRLEExpand(dst []byte, src []byte, off int) (int, error) {
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
