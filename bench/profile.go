package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzipped profile.proto that runtime/pprof writes —
// just enough to attribute CPU samples to packages, so the benchmark needs no
// module dependency and no external tool.

// protoBuf walks one protobuf message.
type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

func (p *protoBuf) bytes() []byte {
	n := p.varint()
	if p.err != nil || n > uint64(len(p.b)) {
		if p.err == nil {
			p.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := p.b[:n]
	p.b = p.b[n:]
	return out
}

// each calls fn for every field of the message. Varint fields arrive in v,
// length-delimited ones in data; fixed-width fields are skipped.
func (p *protoBuf) each(fn func(field int, v uint64, data []byte)) error {
	for len(p.b) > 0 && p.err == nil {
		key := p.varint()
		field, wt := int(key>>3), key&7
		switch wt {
		case 0:
			fn(field, p.varint(), nil)
		case 2:
			fn(field, 0, p.bytes())
		case 1, 5:
			n := 8
			if wt == 5 {
				n = 4
			}
			if len(p.b) < n {
				return io.ErrUnexpectedEOF
			}
			p.b = p.b[n:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
	}
	return p.err
}

// repeatedVarints appends one occurrence of a repeated integer field, packed
// or not.
func repeatedVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	p := protoBuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst
}

// cpuSample is one stack of the profile: function names leaf first, and the
// CPU time attributed to it.
type cpuSample struct {
	stack   []string
	seconds float64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost inlined first
		nValTypes int
	)
	// sub walks one embedded message; its first error fails the whole parse.
	var subErr error
	sub := func(data []byte, fn func(field int, v uint64, data []byte)) {
		m := protoBuf{b: data}
		if err := m.each(fn); err != nil && subErr == nil {
			subErr = err
		}
	}
	top := protoBuf{b: raw}
	err = top.each(func(field int, _ uint64, data []byte) {
		switch field {
		case 1: // sample_type
			nValTypes++
		case 2: // sample
			var s rawSample
			sub(data, func(f int, v uint64, d []byte) {
				switch f {
				case 1:
					s.locs = repeatedVarints(s.locs, v, d)
				case 2:
					s.values = repeatedVarints(s.values, v, d)
				}
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			sub(data, func(f int, v uint64, d []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line
					sub(d, func(lf int, lv uint64, _ []byte) {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					})
				}
			})
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			sub(data, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	})
	if err == nil {
		err = subErr
	}
	if err != nil {
		return nil, err
	}
	if nValTypes < 2 {
		return nil, fmt.Errorf("profile: %d value types, want samples and cpu nanoseconds", nValTypes)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			continue
		}
		cs := cpuSample{seconds: float64(int64(s.values[1])) / 1e9}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuPackages are the packages the budget names; samples under any other
// melissa package go to cpu.other_s.
var cpuPackages = []string{"core", "sobol", "server", "wire", "enc", "codec", "client",
	"transport", "checkpoint", "quantiles", "launcher", "bench", "gc", "other"}

// ownerOf names the package a function belongs to for the budget: the
// melissa/internal package, "bench" for the benchmark's own code, "" for
// anything else (runtime, standard library).
func ownerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "melissa/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// cpuByPackage folds every sample onto the deepest melissa frame of its stack
// (math.tanh under sobol.firstOrderInterval is sobol's). Stacks with no such
// frame are the collector's when a GC worker is on them, other's otherwise.
// The returned shares sum to total.
func cpuByPackage(samples []cpuSample) (byPkg map[string]float64, total float64) {
	byPkg = make(map[string]float64, len(cpuPackages))
	named := make(map[string]bool, len(cpuPackages))
	for _, p := range cpuPackages {
		named[p] = true
	}
	for _, s := range samples {
		total += s.seconds
		owner := ""
		for _, fn := range s.stack {
			if owner = ownerOf(fn); owner != "" {
				break
			}
		}
		switch {
		case owner == "":
			owner = "other"
			for _, fn := range s.stack {
				if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
					strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.(*gcWork)") {
					owner = "gc"
					break
				}
			}
		case !named[owner]:
			owner = "other"
		}
		byPkg[owner] += s.seconds
	}
	return byPkg, total
}
