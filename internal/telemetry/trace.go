// Package telemetry provides time-series buffers and statistics for the
// sampled sensor data the Monte Cimone monitoring stack collects: shunt
// power rails (Fig. 3 and Fig. 4 traces are raw samples averaged over 1 ms
// windows), hwmon temperatures (Fig. 6) and performance counters.
package telemetry

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one timestamped measurement.
type Sample struct {
	// Time is the virtual time of the measurement in seconds.
	Time float64
	// Value is the measurement in the series' unit.
	Value float64
}

// Trace is an append-only time series. The zero value is ready to use.
type Trace struct {
	// Name labels the series ("core", "cpu_temp", ...).
	Name string
	// Unit documents the measurement unit ("mW", "degC", ...).
	Unit string

	samples []Sample
}

// NewTrace returns an empty named trace.
func NewTrace(name, unit string) *Trace {
	return &Trace{Name: name, Unit: unit}
}

// Add appends a sample; times must be non-decreasing.
func (t *Trace) Add(at, value float64) error {
	if n := len(t.samples); n > 0 && at < t.samples[n-1].Time {
		return fmt.Errorf("telemetry: trace %q: sample at %v before last %v", t.Name, at, t.samples[n-1].Time)
	}
	t.samples = append(t.samples, Sample{Time: at, Value: value})
	return nil
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// At returns the i-th sample.
func (t *Trace) At(i int) Sample { return t.samples[i] }

// Mean returns the arithmetic mean of all samples (0 for an empty trace).
func (t *Trace) Mean() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range t.samples {
		sum += s.Value
	}
	return sum / float64(len(t.samples))
}

// Std returns the population standard deviation (0 for fewer than two
// samples).
func (t *Trace) Std() float64 {
	n := len(t.samples)
	if n < 2 {
		return 0
	}
	mean := t.Mean()
	acc := 0.0
	for _, s := range t.samples {
		d := s.Value - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Max returns the largest sample value (0 on an empty trace).
func (t *Trace) Max() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	m := t.samples[0].Value
	for _, s := range t.samples[1:] {
		if s.Value > m {
			m = s.Value
		}
	}
	return m
}

// MeanBetween averages samples with from <= time < to; ok is false when
// the window holds no samples.
func (t *Trace) MeanBetween(from, to float64) (mean float64, ok bool) {
	sum, n := 0.0, 0
	i := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].Time >= from })
	for ; i < len(t.samples) && t.samples[i].Time < to; i++ {
		sum += t.samples[i].Value
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Downsample averages raw samples into fixed windows of the given width in
// seconds (the paper's Fig. 3 uses 1 ms windows over raw shunt samples) and
// returns the resulting trace. Window timestamps are the window start.
func (t *Trace) Downsample(window float64) (*Trace, error) {
	if window <= 0 {
		return nil, fmt.Errorf("telemetry: trace %q: window must be positive, got %v", t.Name, window)
	}
	out := NewTrace(t.Name, t.Unit)
	if len(t.samples) == 0 {
		return out, nil
	}
	start := math.Floor(t.samples[0].Time/window) * window
	sum, n := 0.0, 0
	flush := func() {
		if n > 0 {
			// Append directly: window starts are monotone by construction.
			out.samples = append(out.samples, Sample{Time: start, Value: sum / float64(n)})
		}
	}
	for _, s := range t.samples {
		for s.Time >= start+window {
			flush()
			start += window
			sum, n = 0, 0
		}
		sum += s.Value
		n++
	}
	flush()
	return out, nil
}

// Set is a collection of traces keyed by name, preserving insertion order.
type Set struct {
	order  []string
	traces map[string]*Trace
}

// NewSet returns an empty trace set.
func NewSet() *Set {
	return &Set{traces: make(map[string]*Trace)}
}

// Get returns the named trace, creating it (with the unit) on first use.
func (s *Set) Get(name, unit string) *Trace {
	if tr, ok := s.traces[name]; ok {
		return tr
	}
	tr := NewTrace(name, unit)
	s.traces[name] = tr
	s.order = append(s.order, name)
	return tr
}

// Lookup returns the named trace or nil.
func (s *Set) Lookup(name string) *Trace { return s.traces[name] }

// Names returns trace names in insertion order.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}
