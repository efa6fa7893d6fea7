package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted xs (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sample is one timed observation: when it happened, measured from the
// start of the run, and its value.
type sample struct {
	at time.Duration
	v  float64
}

// windowWidth is the length of the windows windowedQuantile splits a run
// into.
const windowWidth = time.Second

// windowedQuantile splits samples into windowWidth windows and
// returns the median over windows of each window's q-quantile, so a stall
// of the machine in one window moves one window's figure, not the run's.
// Windows with fewer than minWindowSamples samples are skipped.
func windowedQuantile(samples []sample, q float64) float64 {
	byWin := map[int][]float64{}
	for _, s := range samples {
		w := int(s.at / windowWidth)
		byWin[w] = append(byWin[w], s.v)
	}
	var per []float64
	for _, vs := range byWin {
		if len(vs) < minWindowSamples {
			continue
		}
		per = append(per, quantile(sortedCopy(vs), q))
	}
	return median(per)
}

// minWindowSamples keeps at least ten samples beyond a window's p99.
const minWindowSamples = 1000

// logTail prints the whole run's latency percentiles to standard error.
// No tail percentile is a gated metric: on a shared two-core machine the
// p90 and p99 of a 15 s run move by more than any usable bound from run
// to run.
func logTail(samples []sample) {
	vs := make([]float64, len(samples))
	for i, s := range samples {
		vs[i] = s.v
	}
	vs = sortedCopy(vs)
	fmt.Fprintf(os.Stderr, "perfbench: latency over %d samples: p50 %.0f µs, p90 %.0f µs, p99 %.0f µs, p99.9 %.0f µs\n",
		len(vs), quantile(vs, 0.5), quantile(vs, 0.9), quantile(vs, 0.99), quantile(vs, 0.999))
}
