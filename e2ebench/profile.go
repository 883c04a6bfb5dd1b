package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares is a CPU profile reduced to shares of the sampled time:
// self time per module (the package of the leaf function) and time per
// pprof "layer" label.
type cpuShares struct {
	Samples int64              `json:"samples"`
	Modules map[string]float64 `json:"modules"`
	Layers  map[string]float64 `json:"layers"`
}

// moduleOf maps a function name to the repository module it belongs to
// ("ran", "tsdb", ...); "bench" for this benchmark, "runtime" for the
// Go runtime and "stdlib" for the rest of the standard library.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: drop the type arguments
	}
	fn = strings.TrimPrefix(fn, "type:.eq.") // generated equality
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "flexric/internal/"):
		mod := strings.TrimPrefix(pkg, "flexric/internal/")
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	default:
		return "stdlib"
	}
}

// parseCPUProfile reads a gzipped pprof protobuf CPU profile. Only the
// messages this reduction needs are decoded: samples (location IDs,
// values, labels), locations (their innermost line), functions and the
// string table.
func parseCPUProfile(data []byte) (*cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		samples []sample
		leafFn  = map[uint64]uint64{} // location → its innermost function
		fnName  = map[uint64]int64{}  // function → name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, x := range pbUints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // lines run innermost first
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if len(fns) > 0 {
				leafFn[id] = fns[0]
			}
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := &cpuShares{Modules: map[string]float64{}, Layers: map[string]float64{}}
	var total float64
	for _, s := range samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		fn, ok := leafFn[s.locs[0]]
		if !ok {
			continue
		}
		out.Modules[moduleOf(str(fnName[fn]))] += v
		total += v
		out.Samples++
		layer := "none"
		for _, kv := range s.labels {
			if str(kv[0]) == "layer" {
				layer = str(kv[1])
			}
		}
		out.Layers[layer] += v
	}
	if total > 0 {
		for k := range out.Modules {
			out.Modules[k] /= total
		}
		for k := range out.Layers {
			out.Layers[k] /= total
		}
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func pbFields(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (b) or not (v).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
