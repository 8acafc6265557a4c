package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. runtime/pprof writes a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); this file decodes the
// few fields attribution needs with the standard library alone, and
// charges each sample to a layer.

// internalPrefix is the import-path prefix of the repository's layers.
const internalPrefix = "snapify/internal/"

// layerShares returns each cpuLayers bucket's share of the profile's
// CPU time.
func layerShares(gzipped []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gzipped)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[layerOf(s.stack, known)] += s.weight
		total += s.weight
	}
	if total == 0 {
		return shares, nil
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// layerOf charges a stack (innermost frame first) to the innermost
// frame in one of the repository's layers, so a memmove under
// blob.(*Buffer).WriteAt counts as blob and SHA-256 under
// snapstore.Digest as snapstore. Stacks with no such frame count as gc
// when they run a GC worker and as other otherwise; a frame in a
// package without its own bucket counts as other too.
func layerOf(stack []string, known map[string]bool) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if known[pkg] {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// profSample is one decoded sample: its weight (CPU nanoseconds) and
// its function names, innermost first.
type profSample struct {
	weight float64
	stack  []string
}

// decodeProfile extracts every sample's stack of function names and its
// last value (for a CPU profile, nanoseconds on CPU).
func decodeProfile(gzipped []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: float64(s.value)}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcNames[fid]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
