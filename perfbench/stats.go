package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method, and how many samples lie strictly above that rank.
// It returns (0, 0) for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// mean returns the arithmetic mean of xs (0 for an empty sample).
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

// median is the 50th percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// op is one unit of benchmark work as the load generator saw it: a fleet
// job from submit to terminal record, or one simulation of a sweep.
type op struct {
	start, end time.Time
	// failed is set when the op errored or any output check on it failed.
	failed bool
}

// window is the timed interval. Ops that start inside it are attempted;
// ops that also end inside it and succeed are completed and give the
// latency samples. The op still in flight when the window closes is
// finished and checked, but only counts as attempted.
type window struct {
	open, close time.Time
}

// tally is the window's accounting.
type tally struct {
	attempted, failed, completed int
	// latenciesMs holds one sample per completed op.
	latenciesMs []float64
	seconds     float64
}

// attempts reports whether o started inside the window.
func (w window) attempts(o op) bool { return !o.start.Before(w.open) && o.start.Before(w.close) }

// completes reports whether o started inside the window and succeeded by
// its close.
func (w window) completes(o op) bool { return w.attempts(o) && !o.failed && !o.end.After(w.close) }

func (w window) tally(ops []op) tally {
	t := tally{seconds: w.close.Sub(w.open).Seconds()}
	for _, o := range ops {
		if !w.attempts(o) {
			continue
		}
		t.attempted++
		if o.failed {
			t.failed++
		}
		if w.completes(o) {
			t.completed++
			t.latenciesMs = append(t.latenciesMs, float64(o.end.Sub(o.start))/float64(time.Millisecond))
		}
	}
	return t
}

// perSecond is the window's completed-op rate.
func (t tally) perSecond() float64 {
	if t.seconds <= 0 {
		return 0
	}
	return float64(t.completed) / t.seconds
}
