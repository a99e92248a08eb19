package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"slices"
	"strings"
)

// hostPackages are the buckets of host_share: the simulator's packages a
// CPU profile's samples are attributed to, the Go runtime, and other.
var hostPackages = []string{
	"cpu", "mem", "kernel", "vfs", "loader", "zpoline", "lazypoline", "sud", "core",
	"obsv", "span", "audit", "probe", "rr", "fleet", "runtime", "other",
}

// hostShares reads a CPU profile written by runtime/pprof and returns the
// share of samples attributed to each of hostPackages. A sample belongs to
// the package of its innermost frame outside the Go runtime and standard
// library, so a map lookup or an allocation made by the kernel counts as
// kernel; a sample with no such frame (garbage collector workers, the
// scheduler) counts as runtime. Samples of the host-speed kernel
// (calib.go) are left out. It decodes only the parts of the profile.proto
// message it needs.
func hostShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64 // leaf first
		count uint64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		frames  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = fields(data, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			seenVal := false
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1: // Sample.location_id
					s.locs = appendVarints(s.locs, v, b)
				case num == 2 && !seenVal: // Sample.value[0], the sample count
					if vs := appendVarints(nil, v, b); len(vs) > 0 {
						s.count, seenVal = vs[0], true
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			frames[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(hostPackages))
	var total float64
	for _, s := range samples {
		pkg := ""
		calibration, inRuntime := false, false
		for _, loc := range s.locs {
			for _, fn := range frames[loc] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					name := strs[i]
					calibration = calibration || strings.HasPrefix(name, "main.(*calibState)")
					switch b := bucket(name); {
					case b == "runtime":
						inRuntime = true
					case pkg == "" && b != "":
						pkg = b
					}
				}
			}
		}
		switch {
		case calibration:
			continue
		case pkg == "" && inRuntime:
			pkg = "runtime"
		case pkg == "":
			pkg = "other"
		}
		shares[pkg] += float64(s.count)
		total += float64(s.count)
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= total
		}
	}
	return shares, nil
}

// bucket maps a Go function name such as "k23/internal/cpu.(*Core).Run"
// to its host_share package, or to "" for a standard-library package
// other than the runtime.
func bucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "k23/internal/"):
		if p := strings.TrimPrefix(pkg, "k23/internal/"); slices.Contains(hostPackages, p) {
			return p
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "k23/"):
		return "other"
	}
	return ""
}

var errProto = errors.New("pprof: malformed profile")

// fields calls fn for every field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errProto
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends the elements of one occurrence of a repeated
// varint field, which runtime/pprof writes either packed (b) or as one
// field per element (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
