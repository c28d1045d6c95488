package main

import (
	"sort"
	"time"
)

// epoch anchors now(): time.Since reads only the monotonic clock, which is
// cheaper than a full time.Now and immune to wall-clock steps.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(epoch)) }

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// and the number of samples strictly beyond it.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := int(float64(len(s))*p/100+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], len(s) - 1 - i
}

// clockOverhead returns the cost of one back-to-back pair of now() reads:
// the bias every individually timed operation carries.
func clockOverhead() float64 {
	xs := make([]float64, 0, 2000)
	for i := 0; i < cap(xs); i++ {
		t0 := now()
		t1 := now()
		xs = append(xs, float64(t1-t0))
	}
	return median(xs)
}
