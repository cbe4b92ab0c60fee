package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Layers are the repository's modules, named after their packages under
// internal/, plus three buckets for CPU time no module owns: "bench" (the
// harness itself: load generators, the telemetry writer), "runtime" (GC
// and the Go scheduler) and "other" (the standard library without a repo
// frame above it, such as net/http connection handling, and the small
// packages not listed here).
var layers = []string{
	"sim", "node", "power", "perf", "thermal", "cluster", "sched", "workload",
	"campaign", "core", "examon", "powerplane", "dtm", "fault", "fleet",
	"bench", "runtime", "other",
}

var isLayer = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// physicsLayers are the layers that integrate node physics.
var physicsLayers = []string{"node", "power", "perf", "thermal"}

const repoPrefix = "montecimone/internal/"

// layerOf attributes one stack, given innermost function first, to a
// layer: the package of its innermost montecimone/internal frame; else
// "bench" when the harness is on the stack; else "runtime" when the
// innermost frame is in the Go runtime; else "other".
func layerOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if isLayer[pkg] {
				return pkg
			}
			return "other"
		}
		// The harness is package main, or montecimone/bench in its tests.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "montecimone/bench.") {
			harness = true
		}
	}
	switch {
	case harness:
		return "bench"
	case len(stack) > 0 && strings.HasPrefix(stack[0], "runtime."):
		return "runtime"
	}
	return "other"
}

// cpuProfile is CPU time by layer, summed over one or more profiles.
type cpuProfile struct {
	byLayer map[string]float64 // sampled CPU nanoseconds per layer
	totalNS float64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byLayer: make(map[string]float64)} }

// share returns the layer's share of all sampled CPU time (0 when nothing
// was sampled).
func (p *cpuProfile) share(layer string) float64 {
	if p.totalNS == 0 {
		return 0
	}
	return p.byLayer[layer] / p.totalNS
}

// profiling is a CPU profile in progress; a nil *profiling is a no-op, so
// untraced repetitions pay nothing.
type profiling struct{ buf bytes.Buffer }

func startProfiling(traced bool) (*profiling, error) {
	if !traced {
		return nil, nil
	}
	p := &profiling{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and adds its samples to into.
func (p *profiling) stop(into *cpuProfile) error {
	if p == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return into.add(p.buf.Bytes())
}

// add parses one gzipped profile.proto and adds its samples by layer.
// Only the fields attribution needs are read: samples (location ids and
// values), locations (their line entries' function ids), functions (name
// string index) and the string table. Each sample is weighted by its last
// value, which for CPU profiles is CPU nanoseconds.
func (p *cpuProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendRepeated(s.locs, v, b)
				case 2:
					vals, err = appendRepeated(vals, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if ix := funcNames[fn]; ix < uint64(len(strs)) {
					stack = append(stack, strs[ix])
				}
			}
		}
		p.byLayer[layerOf(stack)] += float64(s.weight)
		p.totalNS += float64(s.weight)
	}
	return nil
}

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

// varint decodes one base-128 varint from the front of b.
func varint(b []byte) (v uint64, n int, err error) {
	for shift := uint(0); shift < 64; shift += 7 {
		if n >= len(b) {
			return 0, 0, errTruncated
		}
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n, nil
		}
	}
	return 0, 0, errors.New("varint overflows 64 bits")
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case wireVarint:
			v, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case wireBytes:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if l > uint64(len(b)) {
				return errTruncated
			}
			if err := fn(num, 0, b[:l]); err != nil {
				return err
			}
			b = b[l:]
		case wireI64, wireI32:
			w := 8
			if wire == wireI32 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendRepeated appends a repeated integer field's values, which arrive
// either packed (b holds consecutive varints) or one per field (v).
func appendRepeated(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n, err := varint(b)
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
