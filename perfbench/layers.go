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

// Layer attribution of pprof profiles. Each sample is charged to the
// innermost frame of a croesus/internal/<pkg> function (named after that
// top-level package), to "gc" when a garbage-collector frame comes first,
// and to "other" when neither appears (the runtime scheduler, syscalls,
// the benchmark itself). Only the standard library is available, so the
// profile.proto fields needed here are decoded by hand.

// layers are the internal/ modules the per-layer metrics are reported
// for, plus gc and other. Every attributed package not listed here is
// folded into other.
var layers = []string{
	"core", "detect", "randsrc", "video", "metrics", "txn", "lock", "store",
	"twopc", "wal", "faults", "cluster", "scenario", "vclock", "netsim",
	"transport", "wire", "tcpnet", "obs", "node", "workload", "gc", "other",
}

// gcFrames mark work done for the garbage collector: background mark
// workers, sweeping and scavenging, and allocation assists.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

const internalPrefix = "croesus/internal/"

// layerOf names the layer a stack (leaf first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				rest = rest[:i]
			}
			for _, l := range layers {
				if l == rest {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// profile is the part of a decoded pprof profile the attribution needs.
type profile struct {
	sampleTypes []string  // "type/unit"
	samples     []psample // leaf-first function names and values
}

type psample struct {
	stack  []string
	values []int64
}

// valueIndex finds the sample value column of the given type.
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (have %v)", typ, p.sampleTypes)
}

// byLayer sums one value column per layer.
func (p *profile) byLayer(typ string) (map[string]int64, error) {
	col, err := p.valueIndex(typ)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if col < len(s.values) {
			out[layerOf(s.stack)] += s.values[col]
		}
	}
	return out, nil
}

// parseProfile decodes a (possibly gzipped) pprof protobuf.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs     []string
		types    [][2]int64 // string indexes of type, unit
		raws     []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, inner first
		funcName = map[uint64]int64{}    // function id → string index
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					t[num-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(wt, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(wt, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
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
			err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, r := range raws {
		s := psample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding:
// one value (wire type 0) or a packed run (wire type 2).
func appendVarints(wt int, v uint64, b []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// counterUnits are the per-layer metrics taken from counts the program
// reports (ClusterReport, EdgeServer, CloudServer), from the transport
// shim, and from the benchmark's own Submit timing.
var counterUnits = map[string]string{
	"batcher.mean_batch":                 "count",
	"batcher.shed_ratio":                 "share",
	"batcher.max_flush_wait_ms":          "ms",
	"batcher.slo_violations":             "count",
	"txn.per_frame":                      "count/frame",
	"txn.aborts_per_kframe":              "count/kframe",
	"txn.apologies_per_kframe":           "count/kframe",
	"twopc.cross_edge_commits_per_frame": "count/frame",
	"twopc.prepare_rpcs_per_frame":       "count/frame",
	"twopc.lock_rpcs_per_frame":          "count/frame",
	"wal.appends_per_frame":              "count/frame",
	"wal.replayed":                       "count",
	"faults.in_doubt":                    "count",
	"transport.sends_per_frame":          "count/frame",
	"transport.bytes_per_frame":          "B/frame",
	"transport.send_us_p50":              "us",
	"tcpnet.submit_us_p50":               "us",
}

// layerMetrics aggregates a traced run: untraced repetitions give the
// heap counts and the overhead baseline, traced ones the profiles and
// counters. A metric a workload does not exercise reads 0.
func layerMetrics(workload string, reps []*repResult) *result {
	var base, traced []*repResult
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			base = append(base, r)
		}
	}
	m := map[string]metric{}
	cpu, alloc := map[string]int64{}, map[string]int64{}
	var cpuTotal, allocTotal int64
	for _, r := range traced {
		for l, v := range r.CPUByLayer {
			cpu[l] += v
			cpuTotal += v
		}
		for l, v := range r.AllocByLayer {
			alloc[l] += v
			allocTotal += v
		}
	}
	for _, l := range layers {
		m[l+".cpu_share"] = metric{ratio(float64(cpu[l]), float64(cpuTotal)), "share"}
		if l != "gc" {
			m[l+".alloc_share"] = metric{ratio(float64(alloc[l]), float64(allocTotal)), "share"}
		}
	}

	var mallocs, bytesPF, pauses, baseCost, tracedCost []float64
	cost := func(r *repResult) float64 {
		if workload == wEdgeCloudTCP {
			// The open loop fixes the wall time; tracing shows as CPU.
			return ratio(r.CPUS, float64(r.Answered))
		}
		return r.WallS
	}
	for _, r := range base {
		mallocs = append(mallocs, ratio(float64(r.Mallocs), float64(r.Answered)))
		bytesPF = append(bytesPF, ratio(float64(r.AllocBytes), float64(r.Answered)))
		pauses = append(pauses, r.GCPausesMs...)
		baseCost = append(baseCost, cost(r))
	}
	for _, r := range traced {
		tracedCost = append(tracedCost, cost(r))
	}
	m["gc.allocs_per_frame"] = metric{median(mallocs), "count/frame"}
	m["gc.bytes_per_frame"] = metric{median(bytesPF), "B/frame"}
	m["gc.pause_p99_ms"] = metric{quantile(pauses, 0.99), "ms"}
	m["obs.overhead_ratio"] = metric{ratio(median(tracedCost), median(baseCost)), "ratio"}
	for name, unit := range counterUnits {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.Counters[name])
		}
		m[name] = metric{median(vs), unit}
	}

	fmt.Printf("%s: %d untraced + %d traced repetitions (one process each)\n", workload, len(base), len(traced))
	fmt.Printf("  %-10s %9s %9s\n", "layer", "cpu", "alloc")
	for _, l := range layers {
		fmt.Printf("  %-10s %8.2f%% %8.2f%%\n", l,
			100*m[l+".cpu_share"].Value, 100*ratio(float64(alloc[l]), float64(allocTotal)))
	}
	fmt.Printf("  traced: %.1f MB allocated; untraced: %d GC pauses\n",
		float64(allocTotal)/1e6, len(pauses))
	printMetrics(m)
	return &result{Metrics: m}
}
