package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layer attribution of a CPU profile. runtime/pprof writes a gzipped
// profile.proto message; this file decodes just the parts attribution
// needs (samples, locations, functions, the string table) with a minimal
// protobuf reader, so the benchmark needs nothing beyond the standard
// library.

// cpuLayers are the layers whose host-time share the traced run reports,
// named after the packages under internal/. "driver" is the vmmc kernel
// driver (internal/vmmc/driver.go); "harness" is the benchmark's own
// code; "other" is any other internal package; "go-runtime" is every
// sample with no internal or harness frame on its stack.
var cpuLayers = []string{
	"sim", "hostcpu", "mem", "bus", "lanai", "myrinet", "driver", "vmmc",
	"rpc", "xdr", "serve", "replica", "coll", "trace", "analysis",
	"harness", "other", "go-runtime",
}

const internalPrefix = "repro/internal/"

// layerOf names the layer a function belongs to, or "" for runtime and
// standard-library code.
func layerOf(name, file string) string {
	// The benchmark's own functions are main.* in its binary and
	// repro/perfbench.* in its test binary.
	if strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/perfbench.") {
		return "harness"
	}
	if !strings.HasPrefix(name, internalPrefix) {
		return ""
	}
	pkg := name[len(internalPrefix):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "vmmc" && strings.HasSuffix(file, "internal/vmmc/driver.go") {
		return "driver"
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// profLocation is one decoded location: its frames, innermost first.
type profLocation struct{ funcs []uint64 }

type profFunction struct{ name, file int64 }

// attributeProfile adds each sample's count to the layer of the
// innermost internal (or harness) frame on its stack.
func attributeProfile(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locs    = map[uint64]profLocation{}
		funcs   = map[uint64]profFunction{}
		strs    []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var sm sample
			var vals []uint64
			if err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					sm.locs = appendVarints(sm.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				sm.count = int64(vals[0])
			}
			samples = append(samples, sm)
		case 4: // Location
			var id uint64
			var loc profLocation
			if err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							loc.funcs = append(loc.funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = loc
		case 5: // Function
			var id uint64
			var fn profFunction
			if err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = fn
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, sm := range samples {
		layer := "go-runtime"
	stack:
		for _, id := range sm.locs {
			for _, fid := range locs[id].funcs {
				fn := funcs[fid]
				if l := layerOf(str(fn.name), str(fn.file)); l != "" {
					layer = l
					break stack
				}
			}
		}
		into[layer] += sm.count
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b non-nil) or
// not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// walkProto calls fn for every field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			if b == nil {
				b = []byte{}
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
