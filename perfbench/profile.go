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

// layerOf places every package of the repository in a reported layer. The
// CPU profile charges each flat sample to the layer of the function on top
// of the stack, so this is how self time reaches sim.self_s, engine.self_s
// and the rest. A package missing here would silently land in "other";
// TestLayerMapCoversEveryPackage keeps the map complete.
var layerOf = map[string]string{
	"bmstore/internal/sim":           "sim",
	"bmstore/internal/host":          "host",
	"bmstore/internal/engine":        "engine",
	"bmstore/internal/ssd":           "ssd",
	"bmstore/internal/pcie":          "pcie",
	"bmstore/internal/hostmem":       "hostmem",
	"bmstore/internal/nvme":          "nvme",
	"bmstore/internal/trace":         "trace",
	"bmstore/internal/fio":           "fio",
	"bmstore/internal/apps/kvstore":  "apps.kvstore",
	"bmstore/internal/apps/minidb":   "apps.minidb",
	"bmstore/internal/apps/ycsb":     "apps.ycsb",
	"bmstore/internal/apps/sysbench": "apps.sysbench",
	"bmstore/internal/controller":    "controller",
	"bmstore/internal/mctp":          "controller",
	"bmstore/internal/obs":           "obs",
	"bmstore/internal/obs/timeline":  "obs",
	"bmstore/internal/stats":         "stats",
	// Packages this benchmark does not drive on its data path; a sample
	// there means a workload started exercising them.
	"bmstore/internal/apps/tpcc":   "aux",
	"bmstore/internal/chaos":       "aux",
	"bmstore/internal/cli":         "aux",
	"bmstore/internal/crash":       "aux",
	"bmstore/internal/experiments": "aux",
	"bmstore/internal/fault":       "aux",
	"bmstore/internal/fidelity":    "aux",
	"bmstore/internal/fleet":       "aux",
	"bmstore/internal/fpgares":     "aux",
	"bmstore/internal/remote":      "aux",
	"bmstore/internal/sata":        "aux",
	"bmstore/internal/spdkvhost":   "aux",
	"bmstore/internal/tco":         "aux",
	// The testbed wiring and the benchmark itself.
	"bmstore":           "bench",
	"main":              "bench",
	"bmstore/perfbench": "bench", // the benchmark's package path under go test
}

// profileLayers are the layers reported as <layer>.self_s, in output order.
var profileLayers = []string{
	"sim", "host", "engine", "ssd", "pcie", "hostmem", "nvme", "trace", "fio",
	"apps.kvstore", "apps.minidb", "apps.ycsb", "apps.sysbench",
	"controller", "obs", "stats", "aux", "bench", "stdlib",
}

// Runtime buckets, reported as runtime.<bucket>_s.
const (
	rtHandoff = "runtime.handoff"
	rtMemmove = "runtime.memmove"
	rtGC      = "runtime.gc"
	rtOther   = "runtime.other"
)

// gcFrames mark a stack as garbage-collector work wherever it is sampled.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.GC": true,
	"runtime.markroot": true, "runtime.gcDrain": true, "runtime.sweepone": true,
}

// handoffFrames mark a stack as goroutine handoff: channel operations,
// parking and readying goroutines, and the scheduler loop (including idle
// threads spinning for work). Simulated processes are goroutines handing a
// baton through channels, so this is the cost of a process switch.
var handoffFrames = map[string]bool{
	"runtime.chansend1": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.selectgo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.mcall": true, "runtime.park_m": true, "runtime.schedule": true,
	"runtime.findRunnable": true, "runtime.futex": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.wakep": true, "runtime.stopm": true,
	"runtime.startm": true, "runtime.goexit0": true, "runtime.newproc": true,
}

// packageOf returns the import path of a profiled function name such as
// "bmstore/internal/engine.(*Backend).submit" or "runtime.memmove".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// classify returns the bucket of one sample from its stack, leaf first.
func classify(stack []string) string {
	leaf := stack[0]
	pkg := packageOf(leaf)
	if !isRuntime(pkg) {
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "bmstore") {
			return "other"
		}
		return "stdlib"
	}
	if strings.HasPrefix(leaf, "runtime.memmove") || strings.HasPrefix(leaf, "runtime.memclr") {
		return rtMemmove
	}
	for _, f := range stack {
		if gcFrames[f] {
			return rtGC
		}
	}
	for _, f := range stack {
		if handoffFrames[f] {
			return rtHandoff
		}
	}
	return rtOther
}

// profileSeconds decodes a gzipped CPU profile written by runtime/pprof and
// returns host seconds per bucket (flat: each sample counts once, for the
// function it was sampled in). Only the fields needed for that are read.
func profileSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{} // function id -> name string index
		locs    = map[uint64]uint64{} // location id -> innermost function id
		samples []pbSample
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, w, v, b)
				case 2:
					s.vals = pbAppendUints(s.vals, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line: the first is the innermost inlined function
					if fn == 0 {
						return pbFields(b, func(f, w int, v uint64, b []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locs[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(loc uint64) string {
		if i := funcs[locs[loc]]; i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := map[string]float64{}
	var stack []string
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) < 2 {
			continue
		}
		stack = stack[:0]
		for _, l := range s.locs {
			stack = append(stack, name(l))
		}
		out[classify(stack)] += float64(s.vals[1]) / 1e9 // value 1 is CPU nanoseconds
	}
	return out, nil
}

type pbSample struct{ locs, vals []uint64 }

// pbFields walks one protobuf message, calling fn with each field's number,
// wire type, and varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends a repeated integer field in either encoding: one
// varint, or a packed run of varints.
func pbAppendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
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
