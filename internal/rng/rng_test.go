package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestReseed(t *testing.T) {
	a := New(7)
	first := a.Uint64()
	a.Uint64()
	a.Reseed(7)
	if got := a.Uint64(); got != first {
		t.Fatalf("Reseed did not restart the stream: %d vs %d", got, first)
	}
}

func TestStreamIndependenceByName(t *testing.T) {
	a := Stream(99, "query")
	b := Stream(99, "update")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different names collided %d times", same)
	}
	// Same name must reproduce.
	c := Stream(99, "query")
	d := Stream(99, "query")
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same-name streams diverged")
		}
	}
}

func TestSubStream(t *testing.T) {
	base := Stream(5, "clients")
	a := base.SubStream(0)
	b := base.SubStream(1)
	a2 := Stream(5, "clients").SubStream(0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("SubStream not reproducible")
		}
	}
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("substreams collided %d times", same)
	}
}

func TestSubStreamDoesNotConsume(t *testing.T) {
	a := New(11)
	b := New(11)
	a.SubStream(3)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SubStream consumed draws from parent")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(2)
	const n, draws = 10, 200000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d, want ~%.0f", k, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(3)
	const rate = 2.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean %v, want %v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(4)
	const mu, sigma, n = 3.0, 2.0, 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.05 {
		t.Errorf("Normal mean %v", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.15 {
		t.Errorf("Normal variance %v", variance)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(5)
	const alpha, xm = 1.5, 2.0
	for i := 0; i < 100000; i++ {
		v := r.Pareto(alpha, xm)
		if v < xm {
			t.Fatalf("Pareto draw %v below scale %v", v, xm)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(6)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", float64(hits)/n)
	}
}

func TestUniform(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestZipfProbabilitiesSumToOne(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.8, 1.0, 1.5} {
		z := NewZipf(100, theta)
		sum := 0.0
		for k := 0; k < z.N(); k++ {
			sum += z.Prob(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("theta=%v: probabilities sum to %v", theta, sum)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	z := NewZipf(50, 0.9)
	for k := 1; k < z.N(); k++ {
		if z.Prob(k) > z.Prob(k-1)+1e-12 {
			t.Fatalf("Zipf probabilities not non-increasing at %d", k)
		}
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Fatal("out-of-support Prob must be 0")
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if math.Abs(z.Prob(k)-0.1) > 1e-9 {
			t.Fatalf("theta=0 not uniform: P(%d)=%v", k, z.Prob(k))
		}
	}
}

func TestZipfEmpiricalMatchesAnalytic(t *testing.T) {
	r := New(8)
	z := NewZipf(20, 0.8)
	const n = 200000
	counts := make([]int, 20)
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	for k := range counts {
		got := float64(counts[k]) / n
		want := z.Prob(k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(%d): empirical %v, analytic %v", k, got, want)
		}
	}
}

// TestZipfGuideMatchesBinarySearch checks the guide-table lookup against a
// binary search of the same CDF at the points where they could disagree:
// every CDF value, both its float neighbours, every bucket edge j/m and the
// float just below it, plus the uniforms Sample itself draws. Sizes cover
// n = 1, powers of two and their neighbours (m = n and m ≈ 2n).
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 1024, 1025} {
		for _, theta := range []float64{0, 0.8, 1.2} {
			z := NewZipf(n, theta)
			m := len(z.guide) - 1
			if m < n || m&(m-1) != 0 || (m > 1 && m/2 >= n) {
				t.Fatalf("n=%d: %d buckets, want the smallest power of two ≥ n", n, m)
			}
			check := func(u float64) {
				t.Helper()
				if u < 0 || u >= 1 {
					return // outside Float64's range
				}
				if got, want := z.search(u), sort.SearchFloat64s(z.cdf, u); got != want {
					t.Fatalf("n=%d theta=%v u=%v: guide %d, binary search %d", n, theta, u, got, want)
				}
			}
			for _, c := range z.cdf {
				check(c)
				check(math.Nextafter(c, 0))
				check(math.Nextafter(c, 2))
			}
			for j := 0; j <= m; j++ {
				edge := float64(j) / float64(m)
				check(edge)
				check(math.Nextafter(edge, -1))
			}
			r := New(uint64(n)*10 + uint64(theta*10))
			for i := 0; i < 20000; i++ {
				ref := *r
				got := z.Sample(r)
				if want := sort.SearchFloat64s(z.cdf, ref.Float64()); got != want {
					t.Fatalf("n=%d theta=%v draw %d: Sample %d, binary search %d", n, theta, i, got, want)
				}
			}
		}
	}
}

func TestDiscrete(t *testing.T) {
	d := NewDiscrete([]float64{1, 0, 3})
	r := New(9)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket drawn %d times", counts[1])
	}
	if math.Abs(float64(counts[0])/n-0.25) > 0.01 {
		t.Errorf("bucket 0 frequency %v", float64(counts[0])/n)
	}
}

func TestDiscretePanics(t *testing.T) {
	for _, w := range [][]float64{nil, {0, 0}, {-1, 2}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDiscrete(%v) must panic", w)
				}
			}()
			NewDiscrete(w)
		}()
	}
}

// Property: Uint64n(n) < n for random n.
func TestUint64nBound(t *testing.T) {
	r := New(10)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Zipf sample always in range for random support/skew.
func TestZipfSampleInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, thetaRaw uint8) bool {
		n := int(nRaw%500) + 1
		theta := float64(thetaRaw%30) / 10
		z := NewZipf(n, theta)
		src := New(seed)
		for i := 0; i < 50; i++ {
			k := z.Sample(src)
			if k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func TestLognormal(t *testing.T) {
	r := New(13)
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2).
	const mu, sigma, n = 0.5, 0.4, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Lognormal(mu, sigma)
		if v <= 0 {
			t.Fatalf("lognormal draw %v", v)
		}
		sum += v
	}
	want := math.Exp(mu + sigma*sigma/2)
	if got := sum / n; math.Abs(got-want)/want > 0.02 {
		t.Fatalf("lognormal mean %v, want %v", got, want)
	}
}

func TestDistributionPanics(t *testing.T) {
	r := New(14)
	cases := []func(){
		func() { r.Exp(0) },
		func() { r.Exp(-1) },
		func() { r.Pareto(0, 1) },
		func() { r.Pareto(1.5, 0) },
		func() { NewZipf(0, 0.8) },
		func() { NewZipf(10, -1) },
	}
	for i, f := range cases {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestZipfTheta(t *testing.T) {
	if got := NewZipf(10, 0.7).Theta(); got != 0.7 {
		t.Fatalf("theta %v", got)
	}
}
