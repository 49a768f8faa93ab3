package main

import (
	"math"
	"sort"
)

// validName reports whether s can name a workload or metric: 1 to 64
// characters from [A-Za-z0-9_.-], starting with a letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method), so
// spreads printed here match the ones an outside check computes. With fewer
// than two values both quartiles are that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The tolerance keeps float error in p/100*n from bumping an exact rank.
func rank(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(k, 1)
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest of tailPercentiles that has at least
// ten samples beyond it (by nearest rank), with its value. ok is false when
// even the median has fewer than ten samples above it, that is with fewer
// than twenty samples: such a tail is not reported.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(p, n) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}
