package rng

import (
	"math"
	"sort"
)

// Zipf samples from a Zipf(theta) distribution over {0, 1, …, n-1}:
// P(k) ∝ 1/(k+1)^theta. theta = 0 degenerates to uniform; theta around
// 0.8–1.0 is the conventional "web-like" skew used throughout the wireless
// data-caching literature.
//
// Sampling inverts a precomputed CDF, exact for any theta ≥ 0 (unlike
// rejection samplers that require theta > 1), through a guide table (Chen and
// Asau's index): m buckets, m the smallest power of two ≥ n, where guide[j]
// is the first index whose CDF value is ≥ j/m. A uniform u falls in bucket
// int(u·m), and the answer lies in [guide[j], guide[j+1]], so a draw scans
// at most 1 + n/m ≤ 2 CDF entries on average. Because m is a power of two,
// u·m and j/m are exact, and Sample returns the same index as a binary search
// of the CDF for every u. Memory is O(n), built once.
type Zipf struct {
	cdf   []float64
	guide []int32 // length m+1
	theta float64
}

// NewZipf builds a sampler over n items with skew theta. It panics if n <= 0
// or theta < 0.
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if theta < 0 {
		panic("rng: Zipf with negative theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding leaving the tail short of 1
	m := 1
	for m < n {
		m <<= 1
	}
	guide := make([]int32, m+1)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(m) {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide, theta: theta}
}

// N reports the support size.
func (z *Zipf) N() int { return len(z.cdf) }

// Theta reports the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// Sample draws one value in [0, n).
func (z *Zipf) Sample(r *Source) int {
	return z.search(r.Float64())
}

// search returns the first index whose CDF value is ≥ u, for u in [0, 1):
// sort.SearchFloat64s(z.cdf, u), restricted to u's guide bucket.
func (z *Zipf) search(u float64) int {
	j := int(u * float64(len(z.guide)-1))
	i := int(z.guide[j])
	// Stops by guide[j+1], whose CDF value is ≥ (j+1)/m > u.
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Prob reports P(k).
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cdf) {
		return 0
	}
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// Discrete samples from an arbitrary finite distribution given by
// non-negative weights.
type Discrete struct {
	cdf []float64
}

// NewDiscrete builds a sampler from weights. It panics if weights is empty,
// contains a negative entry, or sums to zero.
func NewDiscrete(weights []float64) *Discrete {
	if len(weights) == 0 {
		panic("rng: Discrete with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: Discrete with negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("rng: Discrete weights sum to zero")
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1
	return &Discrete{cdf: cdf}
}

// Sample draws one index.
func (d *Discrete) Sample(r *Source) int {
	return sort.SearchFloat64s(d.cdf, r.Float64())
}
