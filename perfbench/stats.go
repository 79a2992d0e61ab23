package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// e2e collects one phase's end-to-end measurements.
type e2e struct {
	setup     []time.Duration // one per set-up repetition
	latencies []time.Duration // one per completed request
	passes    []time.Duration // one per completed pass over the input round
	elapsed   time.Duration   // measured window actually used
	completed int
	// ratios and gaps hold one value per distinct input: returned cost
	// over the paper-baseline cost, and the certificate gap.
	ratios, gaps []float64
}

// report writes the end-to-end metrics and their sample counts.
func (m *e2e) report(o *outcome) {
	secs := func(d time.Duration) float64 { return d.Seconds() }
	lat := durations(m.latencies, ms)
	o.set("setup_s", "s", median(durations(m.setup, secs)))
	o.set("latency_p50_ms", "ms", quantile(lat, 0.5))
	o.set("latency_p90_ms", "ms", quantile(lat, 0.9))
	o.set("throughput_rps", "1/s", float64(m.completed)/m.elapsed.Seconds())
	o.set("solve_s", "s", median(durations(m.passes, secs)))
	o.set("cost_ratio", "ratio", geomean(m.ratios))
	o.set("gap_median", "ratio", median(m.gaps))
	o.samples["setup_s"] = len(m.setup)
	o.samples["latency_p50_ms"] = len(lat)
	o.samples["latency_p90_ms"] = len(lat)
	o.samples["throughput_rps"] = m.completed
	o.samples["solve_s"] = len(m.passes)
	o.samples["cost_ratio"] = len(m.ratios)
	o.samples["gap_median"] = len(m.gaps)
}
