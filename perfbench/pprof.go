package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to charge each sample's CPU time to the package
// of its innermost frame: the self time per layer.

// layerOf maps a Go symbol to the layer it is charged to: the last path
// element of a repository package (radio, mac, serve, ...), syscall for the
// kernel-boundary packages, runtime for the Go runtime, other otherwise.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		rest := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i] // serve/harness and friends count as serve
		}
		return rest
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" ||
		pkg == "net" || pkg == "os" || pkg == "internal/syscall/unix":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// addProfile parses one gzipped CPU profile and adds each sample's CPU
// nanoseconds to byLayer under the layer of its innermost frame.
func addProfile(data []byte, byLayer map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id → string index
		locFunc   = map[uint64]uint64{} // location id → innermost function id
		samples   []profSample
		valueIdx  = -1
		typeNames []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, typ)
			return err
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, bb)
				case 2:
					vals = appendVarints(vals, w, v, bb)
				}
				return nil
			})
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, profSample{locs[0], vals})
			}
			return err
		case 4: // location
			var id, fn uint64
			first := true
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for i, t := range typeNames {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return fmt.Errorf("profile: no cpu sample type")
	}
	for _, s := range samples {
		if valueIdx >= len(s.vals) {
			continue
		}
		name := ""
		if si, ok := funcName[locFunc[s.leaf]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		byLayer[layerOf(name)] += float64(s.vals[valueIdx])
	}
	return nil
}

// profSample is one profile sample: its leaf location and its values.
type profSample struct {
	leaf uint64
	vals []uint64
}

// appendVarints appends a repeated integer field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}

// cpuShares turns per-layer CPU time into shares of the profile's total,
// under the "<layer>.cpu_share" metric names.
func cpuShares(byLayer map[string]float64, into map[string]float64) {
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	for _, d := range perLayer {
		layer, ok := strings.CutSuffix(d.Name, ".cpu_share")
		if !ok {
			continue
		}
		if total > 0 {
			into[d.Name] = byLayer[layer] / total
		} else {
			into[d.Name] = 0
		}
	}
}
