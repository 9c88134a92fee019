package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("summary = %+v", s)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, wantStd)
	}
	if math.Abs(s.SE-wantStd/2) > 1e-12 {
		t.Errorf("se = %g, want %g", s.SE, wantStd/2)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Error("accepted empty sample")
	}
	s, err := Summarize([]float64{7})
	if err != nil || s.Mean != 7 || s.Std != 0 {
		t.Errorf("single sample: %+v, %v", s, err)
	}
}

func TestCI95CoversMean(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		lo, hi := s.CI95()
		return lo <= s.Mean && s.Mean <= hi && hi-lo > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTQuantile975 checks Student's t 0.975 quantile against published
// values, in the table and in the expansion above it.
func TestTQuantile975(t *testing.T) {
	for _, c := range []struct {
		df   int
		want float64
	}{{1, 12.706205}, {2, 4.302653}, {7, 2.364624}, {30, 2.042272}, {31, 2.039513}, {100, 1.983972}} {
		if got := tQuantile975(c.df); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("df %d: quantile %.6f, want %.6f", c.df, got, c.want)
		}
	}
}

// TestCI95Coverage: at N = 2, 4 and 8, the interval covers the mean of
// a standard normal sample in 93.5–96.5% of 4,000 seeded samples. The
// normal-quantile interval covers it in about 70% of them at N = 2.
func TestCI95Coverage(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for _, n := range []int{2, 4, 8} {
		const samples = 4000
		covered := 0
		xs := make([]float64, n)
		for range samples {
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			s, err := Summarize(xs)
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := s.CI95(); lo <= 0 && 0 <= hi {
				covered++
			}
		}
		if frac := float64(covered) / samples; frac < 0.935 || frac > 0.965 {
			t.Errorf("N = %d: the interval covers the mean in %.1f%% of samples, want 93.5–96.5%%", n, 100*frac)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5} // sorted: 1 3 5 7 9
	qs, err := Quantiles(xs, 0, 0.25, 0.5, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if math.Abs(qs[i]-want[i]) > 1e-12 {
			t.Errorf("q[%d] = %g, want %g", i, qs[i], want[i])
		}
	}
	if xs[0] != 9 {
		t.Error("input was mutated")
	}
}

func TestQuantilesInterpolation(t *testing.T) {
	xs := []float64{0, 10} // p=0.95 interpolates between the two order stats
	q, err := Quantile(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-9.5) > 1e-12 {
		t.Errorf("p95 of {0,10} = %g, want 9.5", q)
	}
	q, err = Quantile([]float64{42}, 0.5)
	if err != nil || q != 42 {
		t.Errorf("single sample median = %g, %v", q, err)
	}
}

func TestQuantilesErrors(t *testing.T) {
	if _, err := Quantiles([]float64{1}, -0.1); err == nil {
		t.Error("accepted p < 0")
	}
	if _, err := Quantiles([]float64{1}, 1.1); err == nil {
		t.Error("accepted p > 1")
	}
	if _, err := Quantiles([]float64{1}, math.NaN()); err == nil {
		t.Error("accepted NaN probability")
	}
	// Probability validation applies even when the sample is empty.
	if _, err := Quantiles(nil, 1.1); err == nil {
		t.Error("empty sample bypassed probability validation")
	}
}

// TestQuantilesDegenerate pins the documented NaN-free behaviour of
// empty and single-element samples (the /statsz pre-traffic case).
func TestQuantilesDegenerate(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		ps   []float64
		want []float64
	}{
		{"empty nil", nil, []float64{0.5, 0.95, 0.99}, []float64{0, 0, 0}},
		{"empty slice", []float64{}, []float64{0, 1}, []float64{0, 0}},
		{"empty no probs", nil, nil, []float64{}},
		{"single mid", []float64{42}, []float64{0.5}, []float64{42}},
		{"single extremes", []float64{-3}, []float64{0, 0.25, 1}, []float64{-3, -3, -3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			qs, err := Quantiles(tc.xs, tc.ps...)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) != len(tc.want) {
				t.Fatalf("got %d quantiles, want %d", len(qs), len(tc.want))
			}
			for i := range qs {
				if math.IsNaN(qs[i]) {
					t.Fatalf("q[%d] is NaN", i)
				}
				if qs[i] != tc.want[i] {
					t.Errorf("q[%d] = %g, want %g", i, qs[i], tc.want[i])
				}
			}
		})
	}
	if q, err := Quantile(nil, 0.5); err != nil || q != 0 {
		t.Errorf("Quantile(nil, 0.5) = %g, %v; want 0, nil", q, err)
	}
}

func TestQuantilesAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// With n = 101, p = k/100 lands exactly on order statistic k.
	qs, err := Quantiles(xs, 0.50, 0.95, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, k := range []int{50, 95, 99} {
		if qs[i] != sorted[k] {
			t.Errorf("quantile %d = %g, want order stat %g", k, qs[i], sorted[k])
		}
	}
}

func TestBatchMeans(t *testing.T) {
	xs := make([]float64, 1000)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = 3 + rng.NormFloat64()
	}
	s, err := BatchMeans(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || math.Abs(s.Mean-3) > 0.2 {
		t.Errorf("batch means = %+v", s)
	}
	if _, err := BatchMeans(xs, 1); err == nil {
		t.Error("accepted single batch")
	}
	if _, err := BatchMeans(xs[:5], 10); err == nil {
		t.Error("accepted fewer samples than batches")
	}
}
