package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h, err := NewHistogram([]float64{1, 7, 30, 120}, PaperIntervalLabels)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, 0}, {1, 0}, {1.0001, 1}, {7, 1}, {8, 2}, {30, 2},
		{31, 3}, {120, 3}, {121, 4}, {100000, 4},
	}
	for _, c := range cases {
		h2 := *h
		h2.Counts = make([]int, len(h.Counts))
		h2.Add(c.x)
		for i, n := range h2.Counts {
			if (i == c.want) != (n == 1) {
				t.Errorf("Add(%v): counts %v, want bucket %d", c.x, h2.Counts, c.want)
				break
			}
		}
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	h := NewPaperIntervalHistogram()
	vals := []float64{0.5, 3, 15, 60, 400, 1, 7}
	for _, v := range vals {
		h.Add(v)
	}
	if h.Total() != len(vals) {
		t.Fatalf("total %d", h.Total())
	}
	sum := 0.0
	for _, f := range h.Fractions() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil, nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram([]float64{5, 3}, nil); err == nil {
		t.Fatal("decreasing bounds accepted")
	}
	if _, err := NewHistogram([]float64{1, 2}, []string{"only-one"}); err == nil {
		t.Fatal("wrong label count accepted")
	}
}

func TestPaperHistogramsHaveFiveAndFourBuckets(t *testing.T) {
	if got := len(NewPaperIntervalHistogram().Counts); got != 5 {
		t.Fatalf("interval histogram has %d buckets", got)
	}
	if got := len(NewPaperLifespanHistogram().Counts); got != 4 {
		t.Fatalf("lifespan histogram has %d buckets", got)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{5, 7, 9, 11} // y = 2x + 5
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-5) > 1e-12 || f.R2 < 0.999999 {
		t.Fatalf("fit %+v", f)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLine([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestFitExponentialRecovers(t *testing.T) {
	const rate, scale = 0.35, 2.0
	var xs, ys []float64
	for x := 0.0; x < 20; x++ {
		xs = append(xs, x)
		ys = append(ys, scale*math.Exp(-rate*x))
	}
	f, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Rate-rate) > 1e-9 || math.Abs(f.Scale-scale) > 1e-9 || f.R2 < 0.999999 {
		t.Fatalf("fit %+v", f)
	}
}

func TestFitExponentialSkipsNonPositive(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 0, math.Exp(-2), -1} // two valid points
	if _, err := FitExponential(xs, ys); err != nil {
		t.Fatalf("fit with skips failed: %v", err)
	}
}

func TestKSExponentialAcceptsExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rate = 0.5
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() / rate
	}
	d, p, err := KSExponential(xs, rate)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Fatalf("KS rejected true exponential: D=%v p=%v", d, p)
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.Float64() // uniform [0,1)
	}
	_, p, err := KSExponential(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.01 {
		t.Fatalf("KS failed to reject uniform: p=%v", p)
	}
}

func TestKSErrors(t *testing.T) {
	if _, _, err := KSExponential(nil, 1); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, _, err := KSExponential([]float64{1}, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestHistogramFractionsEmptyIsZeros(t *testing.T) {
	h := NewPaperLifespanHistogram()
	for _, f := range h.Fractions() {
		if f != 0 {
			t.Fatal("empty histogram has nonzero fraction")
		}
	}
}
