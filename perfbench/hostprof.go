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

// Host-profile folding: the traced run takes a CPU profile of the whole
// benchmark process with runtime/pprof and folds its samples into self
// time per module. The profile is a gzipped profile.proto message; the
// decoder below reads only the fields folding needs (samples, locations,
// functions, string table), so the benchmark needs nothing outside the
// standard library.

// selfModules are the module names host_self_frac reports, in print order.
// Samples in no listed module fall into runtime (Go runtime work other than
// garbage collection) or other (net/http, syscalls, the benchmark itself,
// and the simulator's small helper packages).
var selfModules = []string{"sim", "core", "msg", "topo", "device", "xmem", "acc", "telemetry",
	"prof", "serve", "apps", "json", "gc", "runtime", "other"}

// gcRoots are stack frames whose presence marks a sample as garbage
// collection work, wherever its leaf is.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.markroot": true,
}

// moduleOf folds a Go function name into a module name.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime":
		return "runtime"
	case strings.HasPrefix(pkg, "impacc/internal/"):
		name := strings.TrimPrefix(pkg, "impacc/internal/")
		for _, m := range selfModules {
			if m == name {
				return m
			}
		}
	}
	return "other"
}

// foldProfile returns each module's share of the profile's CPU time and
// the total CPU seconds sampled.
func foldProfile(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		value []int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]int64{}  // function id -> string table index
		strs    []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Profile.sample
			var s sample
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.value = append(s.value, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id, fn uint64
			var haveLine bool
			err := walkProto(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return walkProto(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := walkProto(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(loc uint64) string {
		if i := fnName[locFn[loc]]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	byMod := map[string]float64{}
	var total float64
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.value) < 2 {
			continue
		}
		ns := float64(s.value[1]) // CPU profiles sample [count, nanoseconds]
		mod := moduleOf(name(s.locs[0]))
		for _, l := range s.locs {
			if gcRoots[name(l)] {
				mod = "gc"
				break
			}
		}
		byMod[mod] += ns
		total += ns
	}
	if total == 0 {
		return nil, 0, errors.New("host profile holds no samples")
	}
	for m := range byMod {
		byMod[m] /= total
	}
	return byMod, total / 1e9, nil
}

// appendVarints appends a repeated varint field's values, whether the
// encoder wrote it packed (b non-nil) or one value per tag.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

// walkProto calls fn for each field of a protobuf message: varints arrive
// as v with b nil, length-delimited fields as b. Fixed-width fields, which
// profile.proto does not use in the fields read here, are skipped.
func walkProto(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
