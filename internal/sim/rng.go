package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a named collection of deterministic random streams. Each subsystem
// asks for a stream by name; the stream's seed is derived from the master
// seed and the name, so adding a new consumer never perturbs the draws seen
// by existing consumers. This keeps measured "noise" (sensor jitter, run-to-
// run standard deviations) reproducible across runs and across refactors.
type RNG struct {
	master  int64
	streams map[string]*rand.Rand
}

// NewRNG returns a stream factory rooted at the given master seed.
func NewRNG(master int64) *RNG {
	return &RNG{master: master, streams: make(map[string]*rand.Rand)}
}

// Stream returns the deterministic stream for name, creating it on first use.
func (r *RNG) Stream(name string) *rand.Rand {
	if s, ok := r.streams[name]; ok {
		return s
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	seed := r.master ^ int64(h.Sum64())
	s := rand.New(rand.NewSource(seed))
	r.streams[name] = s
	return s
}

// Normal draws from a normal distribution with the given mean and standard
// deviation using the named stream.
func (r *RNG) Normal(stream string, mean, stddev float64) float64 {
	return mean + stddev*r.Stream(stream).NormFloat64()
}

// Derive returns a child stream factory whose master seed mixes the given
// name into this factory's master seed. A derived factory's streams are
// fully determined by (parent seed, name): independent of how many other
// factories are derived, of the order they are derived in, and of any
// draws taken from the parent or from sibling factories. This is the
// namespacing primitive behind the fleet runner's per-cluster factories
// ("fleet.cluster.<id>") — adding or removing one consumer never perturbs
// another consumer's timeline.
func (r *RNG) Derive(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return NewRNG(r.master ^ int64(h.Sum64()))
}
