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

// This file reads back the CPU profile that runtime/pprof writes (a
// gzipped profile.proto message) and charges each sample to a layer.
// Only the fields the attribution needs are decoded: samples, locations,
// functions and the string table.

// internalModules lists the packages under internal/, one cpu.<module>
// share each.
var internalModules = []string{
	"apps", "cluster", "core", "experiments", "mapping", "mesh", "metrics",
	"parallel", "recursion", "ringbuf", "sat", "sched", "service",
	"simulator", "store", "telemetry", "tracelog", "version",
}

const internalPrefix = "hypersolve/internal/"

// stackSample is one profile sample: its stack, leaf frame first, as
// function names (inlined frames included, innermost first), and its
// weight (CPU nanoseconds).
type stackSample struct {
	frames []string
	weight int64
}

// moduleOf returns the internal package a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// chargeTo names the bucket a sample is charged to: "gc" for the
// runtime's background mark workers, the innermost internal module on the
// stack otherwise, and "other" when the stack has no internal frame.
func chargeTo(frames []string) string {
	for _, fn := range frames {
		if fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	for _, fn := range frames {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	return "other"
}

// cpuShares returns each bucket's share of the total sample weight. Every
// internal module, "gc" and "other" are present, zero when unsampled; a
// module not in internalModules keeps its own key.
func cpuShares(samples []stackSample) map[string]float64 {
	shares := map[string]float64{"gc": 0, "other": 0}
	for _, m := range internalModules {
		shares[m] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return shares
	}
	for _, s := range samples {
		shares[chargeTo(s.frames)] += float64(s.weight) / float64(total)
	}
	return shares
}

// parseCPUProfile decodes a gzipped profile.proto CPU profile.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
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
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
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
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{weight: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField walks the top-level fields of a protobuf message, passing
// varint values in v and length-delimited payloads in b.
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
			if v, n = binary.Uvarint(msg); n <= 0 {
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
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not, to dst.
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
