package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs, 0 for an empty
// slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// p99Window is the sample count of one window of windowP99: the smallest
// window whose p99 still has ten samples beyond it.
const p99Window = 1000

// windowP99 returns the median, over consecutive windows of p99Window
// samples of xs (in arrival order), of each window's p99. One slow stretch
// — a long repair step, a collection cycle — then moves one window rather
// than the reported value. A final window less than half full is dropped;
// fewer samples than that make one window.
func windowP99(xs []float64) float64 {
	var per []float64
	for lo := 0; lo < len(xs); lo += p99Window {
		hi := lo + p99Window
		if hi > len(xs) {
			hi = len(xs)
		}
		if lo > 0 && hi-lo < p99Window/2 {
			break
		}
		per = append(per, quantile(xs[lo:hi], 0.99))
	}
	return median(per)
}

// median returns the middle value of xs, averaging the two middle values
// of an even-length slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// midMean returns the mean of the middle half of xs: a median that keeps
// every digit of the values it averages.
func midMean(xs []float64) float64 {
	xs = sorted(xs)
	n := len(xs)
	return mean(xs[n/4 : n-n/4])
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
