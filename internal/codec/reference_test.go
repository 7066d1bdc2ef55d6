package codec

import "fmt"

// The unit-at-a-time reference codec: each byte plane XOR-delta coded on
// its own, cut into chunks of chunkWords bytes and those into units of
// unitBytes; a unit is written when any of its bytes is non-zero, in the
// order of the format (unit pair, plane, unit). It defines the wire bytes;
// the transposing production loops must match it byte for byte (FuzzCodec,
// TestCodecMatchesReference).

// refCompress is the reference Encoder.Compress.
func refCompress(dst []byte, words []uint64) []byte {
	n := len(words)
	var planes [8][]byte
	for b := range planes {
		planes[b] = make([]byte, n)
		prev := byte(0)
		for i, w := range words {
			v := byte(w >> (8 * b))
			planes[b][i] = v ^ prev
			prev = v
		}
	}
	for c := 0; c < n; c += chunkWords {
		end := min(c+chunkWords, n)
		var masks [8]uint16
		present := byte(0)
		for b, plane := range planes {
			for u := 0; c+u*unitBytes < end; u++ {
				for _, v := range refUnit(plane, c+u*unitBytes, end) {
					if v != 0 {
						masks[b] |= 1 << u
					}
				}
			}
			if masks[b] != 0 {
				present |= 1 << b
			}
		}
		dst = append(dst, present)
		for _, m := range masks {
			if m != 0 {
				dst = append(dst, byte(m))
				if end-c > 32 {
					dst = append(dst, byte(m>>8))
				}
			}
		}
		for u := 0; c+u*unitBytes < end; u += 2 {
			for b, plane := range planes {
				for h := u; h < u+2; h++ {
					if masks[b]>>h&1 != 0 {
						dst = append(dst, refUnit(plane, c+h*unitBytes, end)...)
					}
				}
			}
		}
	}
	return dst
}

// refUnit returns the unit of plane that starts at i, its bytes at and past
// end zero.
func refUnit(plane []byte, i, end int) []byte {
	u := make([]byte, unitBytes)
	copy(u, plane[i:end])
	return u
}

// refDecompress is the reference Decoder.Decompress.
func refDecompress(words []uint64, src []byte) error {
	n := len(words)
	var planes [8][]byte
	for b := range planes {
		planes[b] = make([]byte, n)
	}
	off := 0
	for c := 0; c < n; c += chunkWords {
		end := min(c+chunkWords, n)
		units := (end - c + unitBytes - 1) / unitBytes
		if off >= len(src) {
			return fmt.Errorf("codec: chunk at word %d: truncated", c)
		}
		present := src[off]
		off++
		var masks [8]uint16
		for b := range masks {
			if present>>b&1 == 0 {
				continue
			}
			if off >= len(src) {
				return fmt.Errorf("codec: chunk at word %d: truncated mask", c)
			}
			masks[b] = uint16(src[off])
			off++
			if units > 8 {
				if off >= len(src) {
					return fmt.Errorf("codec: chunk at word %d: truncated mask", c)
				}
				masks[b] |= uint16(src[off]) << 8
				off++
			}
			if masks[b] == 0 || masks[b]>>units != 0 {
				return fmt.Errorf("codec: chunk at word %d: plane %d mask %#x", c, b, masks[b])
			}
		}
		for u := 0; u < units; u += 2 {
			for b, plane := range planes {
				for h := u; h < u+2; h++ {
					if masks[b]>>h&1 == 0 {
						continue
					}
					if off+unitBytes > len(src) {
						return fmt.Errorf("codec: chunk at word %d: truncated unit", c)
					}
					copy(plane[c+h*unitBytes:end], src[off:off+unitBytes])
					off += unitBytes
				}
			}
		}
	}
	if off != len(src) {
		return fmt.Errorf("codec: %d trailing bytes", len(src)-off)
	}
	// Invert each plane's XOR delta (a prefix XOR) while scattering the
	// plane back into its byte of the words.
	out := make([]uint64, n)
	for b, plane := range planes {
		acc := byte(0)
		for i, v := range plane {
			acc ^= v
			out[i] |= uint64(acc) << (8 * b)
		}
	}
	copy(words, out)
	return nil
}
