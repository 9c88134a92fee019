// Package stats provides the small statistical helpers the simulators
// use: summaries, confidence intervals, and batch means for correlated
// series.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N    int
	Mean float64
	// Std is the sample standard deviation (Bessel-corrected).
	Std float64
	// SE is the standard error of the mean.
	SE float64
}

// Summarize computes a summary of xs.
func Summarize(xs []float64) (Summary, error) {
	n := len(xs)
	if n == 0 {
		return Summary{}, errors.New("stats: empty sample")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}, nil
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n-1))
	return Summary{N: n, Mean: mean, Std: std, SE: std / math.Sqrt(float64(n))}, nil
}

// CI95 returns the 95% confidence interval for the mean: Student's t
// interval with N-1 degrees of freedom, which covers the mean of a
// normal sample 95% of the time at any N, where the normal quantile
// covers it far less often at small N (70% at N = 2). A single
// observation has no spread and gets the interval [Mean, Mean].
func (s Summary) CI95() (lo, hi float64) {
	if s.N < 2 {
		return s.Mean, s.Mean
	}
	t := tQuantile975(s.N - 1)
	return s.Mean - t*s.SE, s.Mean + t*s.SE
}

// t975 holds Student's t 0.975 quantile for 1 to 30 degrees of freedom.
var t975 = [...]float64{
	12.706205, 4.302653, 3.182446, 2.776445, 2.570582, 2.446912, 2.364624, 2.306004, 2.262157, 2.228139,
	2.200985, 2.178813, 2.160369, 2.144787, 2.131450, 2.119905, 2.109816, 2.100922, 2.093024, 2.085963,
	2.079614, 2.073873, 2.068658, 2.063899, 2.059539, 2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
}

// tQuantile975 returns Student's t 0.975 quantile with df >= 1 degrees
// of freedom: from the table up to 30, and above 30 from the
// Cornish–Fisher expansion around the normal quantile to the 1/df²
// term, which is within 1e-3 of the quantile there.
func tQuantile975(df int) float64 {
	if df <= len(t975) {
		return t975[df-1]
	}
	const z = 1.959963984540054 // the normal 0.975 quantile
	v := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	return z + (z3+z)/(4*v) + (5*z5+16*z3+3*z)/(96*v*v)
}

// Quantile returns the exact empirical p-quantile of xs, computed on a
// sorted copy with linear interpolation between order statistics (the
// same convention as numpy's default). p must lie in [0, 1]; p = 0 is
// the minimum, p = 1 the maximum. An empty sample yields 0 (never NaN),
// and a single-element sample yields that element at every p.
func Quantile(xs []float64, p float64) (float64, error) {
	qs, err := Quantiles(xs, p)
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Quantiles returns the exact empirical quantiles of xs at each
// probability in ps. The input is copied and sorted once, so asking for
// several quantiles costs one O(n log n) sort; xs is not modified.
//
// Degenerate samples have defined, NaN-free values: an empty xs yields
// a zero for every probability (so metrics snapshots taken before any
// observation render as 0, not NaN), and a single-element xs yields
// that element at every p. Out-of-range probabilities are still errors
// regardless of the sample.
func Quantiles(xs []float64, ps ...float64) ([]float64, error) {
	for _, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, errors.New("stats: quantile probability out of [0, 1]")
		}
	}
	if len(xs) == 0 {
		return make([]float64, len(ps)), nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	qs := make([]float64, len(ps))
	for i, p := range ps {
		pos := p * float64(len(sorted)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			qs[i] = sorted[lo]
			continue
		}
		frac := pos - float64(lo)
		qs[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return qs, nil
}

// BatchMeans splits a (possibly autocorrelated) series into `batches`
// contiguous batches and summarizes the batch means, the standard way to
// get honest error bars from a single long simulation run.
func BatchMeans(xs []float64, batches int) (Summary, error) {
	if batches < 2 {
		return Summary{}, errors.New("stats: need at least 2 batches")
	}
	if len(xs) < batches {
		return Summary{}, errors.New("stats: fewer samples than batches")
	}
	size := len(xs) / batches
	means := make([]float64, batches)
	for b := 0; b < batches; b++ {
		sum := 0.0
		for _, x := range xs[b*size : (b+1)*size] {
			sum += x
		}
		means[b] = sum / float64(size)
	}
	return Summarize(means)
}
