package main

import (
	"math"
	"testing"
)

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "core.analyze_ns_per_event.regs-stack", "window-sweep", "9lives", "a"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false, want true", s)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "x"
	}
	for _, s := range []string{"", ".hidden", "-flag", "_x", "has space", "per/layer", "ünï", "a:b", long} {
		if validName(s) {
			t.Errorf("validName(%q) = true, want false", s)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		// statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]: the
		// exclusive method extrapolates past the data for tiny samples.
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{5, 0, false},
		{19, 0, false}, // the median has only nine samples above it
		{20, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 would leave nine
		{100, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		xs := seq(c.n)
		p, v, ok := tailPercentile(xs)
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: tailPercentile = p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if !ok {
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has only %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); p != 9 {
		t.Errorf("p90 = %v, want 9 (nearest rank)", p)
	}
}
