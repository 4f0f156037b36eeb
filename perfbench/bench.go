package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// setupReps is how many times a run sets its deployment up; setup_s is
// their median, which damps slow repetitions.
const setupReps = 9

// maxKeptTraces bounds the traces a traced run keeps for its trace file.
const maxKeptTraces = 2000

// bench is the state of one run shared by the workload drivers.
type bench struct {
	cfg config
	rec *recorder
	dir string // the run's scratch directory

	e2e   map[string]float64
	layer map[string]float64

	round  int  // next round number; rounds continue across phases
	traced bool // the current phase records spans

	traceMu sync.Mutex
	traces  []traceRecord
}

// traceRecord is one traced operation as written to the trace file.
type traceRecord struct {
	Op     string     `json:"op"`
	WallNS int64      `json:"wall_ns"`
	Spans  []obs.Span `json:"spans"`
}

// setup times build setupReps times and reports the median as setup_s.
// Every repetition but the last is torn down with discard, and a forced
// collection before each one keeps it from paying for the garbage of the
// one before.
func setup[T any](b *bench, build func() (T, error), discard func(T)) (T, error) {
	var last T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		b.rec.setups = append(b.rec.setups, time.Since(start).Seconds())
		last = v
	}
	b.e2e["setup_s"] = median(b.rec.setups)
	return last, nil
}

// measure runs the configured number of rounds. A traced run runs the
// first half untraced and the second half traced: the end-to-end numbers
// come from untraced rounds, and the two halves' query medians give the
// tracing overhead.
func (b *bench) measure(round func(r int) error) error {
	n := b.cfg.rounds
	if !b.cfg.trace {
		return b.phase(n, false, round)
	}
	if err := b.phase(max(1, n/2), false, round); err != nil {
		return err
	}
	untraced := median(b.rec.queryMS)
	b.rec.resetQueries()
	if err := b.phase(max(1, n-n/2), true, round); err != nil {
		return err
	}
	b.layer["obs.trace_overhead_pct"] = 100 * ratio(median(b.rec.queryMS)-untraced, untraced)
	return nil
}

// phase runs n whole rounds, continuing the round numbering, so a run's
// operations are fixed by the seed and the round count.
func (b *bench) phase(n int, traced bool, round func(r int) error) error {
	b.traced = traced
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := round(b.round); err != nil {
			return err
		}
		b.round++
	}
	b.rec.timedWall += time.Since(start)
	return nil
}

// sample records a per-operation figure. Untraced phases keep theirs
// under an "untraced/" prefix, so user-facing latencies such as
// update_p50_ms can be taken from untraced operations even in a traced run.
func (b *bench) sample(name string, v float64) {
	if !b.traced {
		name = "untraced/" + name
	}
	b.rec.sample(name, v)
}

// keepTrace retains one operation's spans for the trace file.
func (b *bench) keepTrace(op string, wall time.Duration, spans []obs.Span) {
	b.traceMu.Lock()
	if len(b.traces) < maxKeptTraces {
		b.traces = append(b.traces, traceRecord{Op: op, WallNS: wall.Nanoseconds(), Spans: spans})
	}
	b.traceMu.Unlock()
}

// writeTraces writes the retained spans, one JSON record per line.
func (b *bench) writeTraces() error {
	dir := filepath.Join(b.cfg.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range b.traces {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// queryMetrics fills the end-to-end query metrics from the timed phase.
func (b *bench) queryMetrics() {
	rec := b.rec
	b.e2e["query_p50_ms"] = median(rec.queryMS)
	b.e2e["query_p99_ms"] = blockQuantile(rec.queryMS, 0.99)
	b.e2e["throughput_qps"] = ratio(float64(rec.queries), rec.timedWall.Seconds())
	b.e2e["bytes_per_query"] = ratio(float64(rec.queryBytes), float64(rec.queries))
}

// heapMB forces garbage collection and returns the live heap in MB; the
// caller keeps its deployment referenced across the call.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// shuffledRound runs round r of a solo-query workload: each of the n pool
// queries copies times, in an order drawn from the seed and the round.
func (b *bench) shuffledRound(r, n, copies int, fn func(i int)) {
	ops := make([]int, 0, copies*n)
	for c := 0; c < copies; c++ {
		for i := 0; i < n; i++ {
			ops = append(ops, i)
		}
	}
	rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(r)))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	clients(len(ops), func(i int) { fn(ops[i]) })
}

// clients runs fn on GOMAXPROCS closed-loop clients over the n operations
// of one round: each client takes the next operation when its previous
// one has completed, and the round ends when all have.
func clients(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

var bg = context.Background()
