// Package rng provides seeded, splittable random-number streams.
//
// Every stochastic component of the simulation (shadowing noise, push
// latency, walking jitter, command scheduling) draws from its own
// stream derived from a root seed and a label, so adding randomness to
// one component never perturbs another and whole experiments replay
// bit-identically.
//
// Child seeds are derived statelessly with the SplitMix64 finalizer
// (Steele, Lea & Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014), and each stream draws from a math/rand/v2
// PCG. Deriving a child costs a few multiplies and one small
// allocation; no generator state is built until the first draw.
package rng

import (
	"math"
	"math/rand/v2"
)

// golden is the SplitMix64 increment (2^64 / φ, odd).
const golden = 0x9e3779b97f4a7c15

// mix is the SplitMix64 step: add the golden increment, then run the
// variant-13 finalizer. It is a bijection on uint64.
func mix(x uint64) uint64 {
	x += golden
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv1a64 is the 64-bit FNV-1a hash of s, read in place.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Source is a deterministic random stream that supports
// order-independent splitting into labelled child streams.
//
// The generator is seeded lazily, on the first draw, so split children
// that are only consulted for their seed never build one.
type Source struct {
	r    *rand.Rand
	pcg  rand.PCG
	seed int64
}

// New returns a stream seeded with seed. All 64 bits of the seed
// select the stream.
func New(seed int64) *Source {
	return &Source{seed: seed}
}

// seedPCG seeds p as the stream for seed.
func seedPCG(p *rand.PCG, seed int64) {
	s := uint64(seed)
	p.Seed(s, mix(s^golden))
}

// rand returns the underlying generator, seeding it on first use.
func (s *Source) rand() *rand.Rand {
	if s.r == nil {
		seedPCG(&s.pcg, s.seed)
		s.r = rand.New(&s.pcg)
	}
	return s.r
}

// Seed reports the seed this stream was created with.
func (s *Source) Seed() int64 { return s.seed }

// Fresh reports whether the stream has never been drawn from, i.e.
// its future output is still a pure function of Seed. Memoization
// keyed by Seed is only valid for fresh streams.
func (s *Source) Fresh() bool { return s.r == nil }

// splitSeed is the seed of the child keyed by label.
func (s *Source) splitSeed(label string) uint64 {
	return mix(uint64(s.seed) ^ mix(fnv1a64(label)))
}

// Split derives an independent child stream keyed by label. Splitting
// is a pure function of the parent seed and the label — it does not
// consume state from the parent, so the order in which children are
// created does not matter.
func (s *Source) Split(label string) *Source {
	return New(int64(s.splitSeed(label)))
}

// SplitN derives a child stream keyed by label and an index, for
// per-item streams (e.g. one per day, one per location).
func (s *Source) SplitN(label string, n int) *Source {
	return New(int64(mix(s.splitSeed(label) + uint64(n))))
}

// KeyedNormal returns the first standard-normal draw of the child
// stream keyed by the integers ks, whose seed is h := Seed(), then
// h = mix(h ^ k) for each k in order. Like Split it is a pure function
// of the parent seed and its keys. The child's generator lives on the
// caller's stack; only the PCG state (16 bytes) escapes, through
// rand.Rand's Source interface.
func (s *Source) KeyedNormal(ks ...uint64) float64 {
	h := uint64(s.seed)
	for _, k := range ks {
		h = mix(h ^ k)
	}
	var p rand.PCG
	seedPCG(&p, int64(h))
	return rand.New(&p).NormFloat64()
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rand().Float64() }

// IntN returns a uniform int in [0, n). n must be > 0.
func (s *Source) IntN(n int) int { return s.rand().IntN(n) }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rand().Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, std float64) float64 {
	return mean + std*s.rand().NormFloat64()
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.rand().ExpFloat64() * mean
}

// LogNormal returns a log-normally distributed value parameterised by
// the mean and standard deviation of the underlying normal.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rand().Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand().Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rand().Shuffle(n, swap) }

// Pick returns a uniformly chosen element of xs. It panics if xs is
// empty, mirroring slice indexing semantics.
func Pick[T any](s *Source, xs []T) T {
	return xs[s.IntN(len(xs))]
}
