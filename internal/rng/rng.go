// Package rng provides seeded, reproducible random sampling for the
// simulators and Monte Carlo routines. All stochastic components in the
// system take an explicit *RNG so every experiment is replayable
// bit-for-bit, which the tests rely on.
package rng

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with distribution samplers used across the system.
// It is not safe for concurrent use; create one per goroutine (Split).
type RNG struct {
	r *rand.Rand
}

// New returns a deterministic generator for the given seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator. The child's seed is drawn
// from the parent so a single experiment seed fans out deterministically.
func (g *RNG) Split() *RNG {
	return New(g.r.Int63())
}

// Float64 returns a uniform sample from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform samples from U(lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal samples from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Exponential samples from Exp(rate), mean 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	return g.r.ExpFloat64() / rate
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	return g.r.Float64() < p
}

// Poisson samples a Poisson(lambda) count using Knuth's method for small
// lambda and the normal approximation beyond 30 (adequate for workload
// generation, where lambda is an arrival rate).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		k := int(math.Round(g.Normal(lambda, math.Sqrt(lambda))))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical samples an index proportional to the (unnormalized,
// non-negative) weights. A zero total weight yields a uniform draw.
func (g *RNG) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return g.r.Intn(len(weights))
	}
	u := g.r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the n elements addressed by swap in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.r.Shuffle(n, swap)
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
