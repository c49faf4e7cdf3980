package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2 (population form)", got)
	}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{
		"Mean":         Mean,
		"StdDev":       StdDev,
		"Min":          Min,
		"Max":          Max,
		"Median":       Median,
		"MeanMinusStd": MeanMinusStd,
	} {
		if got := f(nil); !math.IsNaN(got) {
			t.Errorf("%s(nil) = %v, want NaN", name, got)
		}
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v, want 0", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1.5}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := Sum(xs); !almostEqual(got, 7.5, 1e-12) {
		t.Errorf("Sum = %v, want 7.5", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-10, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{42}, 73); got != 42 {
		t.Errorf("Percentile(single, 73) = %v, want 42", got)
	}
	if got := Percentile(xs, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 25); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Percentile interp = %v, want 2.5", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("unexpected summary: %+v", s)
	}
	e := Summarize(nil)
	if e.N != 0 || !math.IsNaN(e.Mean) {
		t.Errorf("empty summary should be NaN-filled: %+v", e)
	}
}

// Property: F = mean - std is never above the mean, and for a constant
// sample equals the mean exactly.
func TestMeanMinusStdProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Bound magnitude to avoid float overflow in squared terms.
			xs = append(xs, math.Mod(x, 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		f := MeanMinusStd(xs)
		return f <= Mean(xs)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if got := MeanMinusStd([]float64{3, 3, 3}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("constant sample: F = %v, want 3", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	prop := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(x, 1e9))
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi+1e-9 && lo >= Min(xs)-1e-9 && hi <= Max(xs)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
