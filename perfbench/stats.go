package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). It sorts a copy.
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

// tailBlock is the number of consecutive samples over which blockQuantile
// takes one quantile: at q = 0.99, ten samples lie beyond it.
const tailBlock = 1000

// blockQuantile splits xs, in the order recorded, into blocks of at least
// tailBlock samples and returns the median of the blocks' q-quantiles, so
// that a stall of the host lasting a few seconds moves one block's figure
// and not the run's. Fewer than two blocks' worth of samples give the
// q-quantile of them all.
func blockQuantile(xs []float64, q float64) float64 {
	n := len(xs) / tailBlock
	if n < 2 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for i := range per {
		lo, hi := i*len(xs)/n, (i+1)*len(xs)/n
		per[i] = quantile(xs[lo:hi], q)
	}
	return median(per)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// opCount is the attempted/failed tally of one operation type.
type opCount struct{ attempted, failed int64 }

// recorder gathers one run's measurements. Workload clients record from
// several goroutines, so every method locks.
type recorder struct {
	mu sync.Mutex

	ops      map[string]*opCount
	opOrder  []string
	problems []string // first few failure descriptions, for the log
	mismatch int64    // failed operations whose output was wrong (not an error)

	setups []float64 // seconds per set-up repetition

	queryMS    []float64
	queries    int64
	queryBytes int64
	timedWall  time.Duration // summed duration of the timed phases

	layer map[string][]float64 // per-layer samples, traced phase only
}

func newRecorder() *recorder {
	return &recorder{ops: map[string]*opCount{}, layer: map[string][]float64{}}
}

func (r *recorder) op(kind string) *opCount {
	c, ok := r.ops[kind]
	if !ok {
		c = &opCount{}
		r.ops[kind] = c
		r.opOrder = append(r.opOrder, kind)
	}
	return c
}

// attempt counts one operation of kind; a non-nil err marks it failed.
// wrong marks a failure as a wrong answer rather than an error.
func (r *recorder) attempt(kind string, err error, wrong bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.op(kind)
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if wrong {
		r.mismatch++
	}
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", kind, err))
	}
}

// query records one answered Boolean query of the timed phase.
func (r *recorder) query(d time.Duration, bytes int64) {
	r.mu.Lock()
	r.queryMS = append(r.queryMS, ms(d))
	r.queries++
	r.queryBytes += bytes
	r.mu.Unlock()
}

// sample adds one per-layer observation.
func (r *recorder) sample(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = append(r.layer[name], v)
	r.mu.Unlock()
}

func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.layer[name]...)
}

func (r *recorder) totals() (attempted, failed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ops {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// resetQueries drops the query samples gathered so far (the untraced
// half of a traced run keeps its own copy first).
func (r *recorder) resetQueries() {
	r.mu.Lock()
	r.queryMS, r.queries, r.queryBytes, r.timedWall = nil, 0, 0, 0
	r.mu.Unlock()
}
