package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// forEach calls f(i) for every i < n on jobs goroutines and returns when
// all calls have.
func forEach(n int, f func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// percentile returns the nearest-rank p-quantile of xs (p in (0,1]): the
// smallest sample with at least a p share of the samples at or below it.
// It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
// A tail percentile is reported only with at least minBeyond of them.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// minBeyond is the sample count a reported percentile needs above it.
const minBeyond = 10

// samplesFor is the smallest sample count that leaves minBeyond samples
// above the p-quantile.
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// batches is how many batches (grid passes, service rounds) a run makes:
// as many as take seconds at nominal seconds a batch on the reference
// host, a 2-vCPU Xeon VM, and at least minimum. A run's work is fixed by
// its arguments, never by the clock, so a seed's runs attempt the same
// operations and meet the same failures on any host and at any load.
func batches(seconds, nominal float64, minimum int) int {
	return max(int(math.Ceil(seconds/nominal)), minimum, 1)
}

// median is the middle sample, the mean of the two middle ones for an
// even count, and 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// Set-up is repeated until the timed set-ups add up to setupFloor, and at
// least setupMin times; setup_s is the median of one set-up's time. A
// set-up of microseconds is so read off hundreds of repetitions, not off
// one pair of clock reads. Each repetition starts right after a garbage
// collection, so every one meets the same heap state and none pays for
// the garbage of the one before.
const (
	setupFloor = 300 * time.Millisecond
	setupMin   = 5
)

// setupTime runs setup, which returns the time its timed part took, as
// above and returns setup_s in seconds. The last call's state is the
// run's.
func setupTime(setup func() (time.Duration, error)) (float64, error) {
	var times []float64
	var total time.Duration
	for total < setupFloor || len(times) < setupMin {
		runtime.GC()
		d, err := setup()
		if err != nil {
			return 0, err
		}
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}
