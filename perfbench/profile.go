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

// cpuBuckets are the cpu.* per-layer metrics. Every profile sample
// lands in exactly one of them (see bucketOf).
var cpuBuckets = []string{
	"topology", "routing", "core", "workload", "traffic", "sim", "gm", "mcp",
	"lanai", "fabric", "packet", "recovery", "faults", "stats", "metrics",
	"runtime_gc", "runtime_malloc", "other",
}

// gcRoots mark a stack as garbage-collector work wherever they appear
// in it; mallocRoots mark allocation. GC is tested first, so an
// allocation that assists the collector counts as GC.
var (
	gcRoots = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.markroot", "runtime.wbBufFlush",
		"runtime.bulkBarrierPreWrite", "runtime.gcWriteBarrier",
	}
	mallocRoots = []string{"runtime.mallocgc"}
)

// bucketOf classifies one stack, given leaf first: GC, then malloc,
// then the leaf-most frame inside repro/internal/<module> (so runtime
// helpers such as map access and memmove count toward the module that
// called them), else other.
func bucketOf(stack []string) string {
	has := func(roots []string) bool {
		for _, fn := range stack {
			for _, r := range roots {
				if fn == r || strings.HasPrefix(fn, r+".") {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has(gcRoots):
		return "runtime_gc"
	case has(mallocRoots):
		return "runtime_malloc"
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		module, _, _ := strings.Cut(rest, ".")
		module, _, _ = strings.Cut(module, "/")
		for _, b := range cpuBuckets {
			if b == module {
				return b
			}
		}
		return "other"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the samples, with the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, total, nil
}

// stack is one profile sample: its function names, leaf first, and its
// sample count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads the fields of profile.proto the shares need:
// sample (2), location (4), function (5) and string_table (6).
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					if vals := appendVarints(nil, w, v, b); first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the protobuf fields of b, passing varint values in v
// and length-delimited payloads in b.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
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
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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
