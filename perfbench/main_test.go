package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// quickRun runs one workload on small documents for a fraction of a
// second and returns its printed result.
func quickRun(t *testing.T, workload string, corrupt bool) result {
	t.Helper()
	cfg := config{
		workload: workload, seed: 7, seconds: 200 * time.Millisecond, fanout: 16,
		outDir: t.TempDir(), small: true, corruptOracle: corrupt,
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var printed result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	if printed.Attempted != res.Attempted || printed.Failed != res.Failed || printed.Correct != res.Correct {
		t.Fatalf("%s: printed %+v, returned %+v", workload, printed, res)
	}
	return res
}

// TestWorkloadsPass runs every workload end to end: each must finish
// with zero failed operations and report every end-to-end metric.
func TestWorkloadsPass(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := quickRun(t, name, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; v <= 0 {
					t.Errorf("%s = %v, want a positive measurement", m.name, v)
				}
			}
		})
	}
}

// TestWrongOracleFailsRun feeds each workload one deliberately wrong
// oracle answer: the run must report wrong answers as failed operations
// and not claim to be correct.
func TestWrongOracleFailsRun(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := quickRun(t, name, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted oracle: correct=%v failed=%d, want a failing run", res.Correct, res.Failed)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer checks that a traced run prints every
// per-layer metric.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	cfg := config{
		workload: "fanout-tcp", seed: 3, seconds: 200 * time.Millisecond, fanout: 16,
		outDir: t.TempDir(), small: true, trace: true,
	}
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	if v := res.Metrics["core.visits_per_site"].Value; v != 1 {
		t.Errorf("core.visits_per_site = %v, want 1", v)
	}
}

// TestAnalyze pins the layer split on a hand-built trace: a root that
// calls one remote site over TCP (queue, handler, bottomUp, encode) while
// its own site evaluates the root fragment locally.
func TestAnalyze(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Site: "S0", Name: "bench.query", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Site: "S1", Name: "rpc parbox.evalQual", Start: 10, Dur: 60},
		{ID: 3, Parent: 2, Site: "S1", Name: "queue", Start: 15, Dur: 5},
		{ID: 4, Parent: 2, Site: "S1", Name: "handle parbox.evalQual", Start: 22, Dur: 40},
		{ID: 5, Parent: 4, Site: "S1", Name: "bottomUp", Start: 25, Dur: 30},
		{ID: 6, Parent: 4, Site: "S1", Name: "encode", Start: 56, Dur: 4},
		{ID: 7, Parent: 1, Site: "S0", Name: "handle parbox.evalQual", Start: 5, Dur: 30},
		{ID: 8, Parent: 7, Site: "S0", Name: "bottomUp", Start: 6, Dur: 25},
	}
	got := analyze(spans, 1, "S0")
	want := breakdown{
		coordSelf:    100 - 65, // the children cover [5, 70)
		rpc:          60,
		wire:         60 - 40,
		queue:        5,
		admit:        22 - 20,
		bottomUp:     55,
		rootBottomUp: 25,
		encode:       4,
		// The path is root, rpc, handle, bottomUp and encode, then queue;
		// the handler's own 6 are reported by no layer.
		explained: (100 - 60) + (60 - 40 - 5) + 5 + 30 + 4,
	}
	if got != want {
		t.Fatalf("analyze = %+v\nwant      %+v", got, want)
	}
}

// TestBlockQuantile checks that a stall confined to one block of a run
// does not move the block-median p99, and that a short run takes the p99
// of all its samples.
func TestBlockQuantile(t *testing.T) {
	xs := make([]float64, 3*tailBlock)
	for i := range xs {
		xs[i] = float64(i % 100) // every block holds the same samples
	}
	want := quantile(xs[:tailBlock], 0.99)
	for i := 0; i < tailBlock/10; i++ {
		xs[i] = 1000 // a stall in the first block
	}
	if got := blockQuantile(xs, 0.99); got != want {
		t.Errorf("blockQuantile = %v, want %v", got, want)
	}
	short := xs[:tailBlock+tailBlock/2]
	if got, want := blockQuantile(short, 0.99), quantile(short, 0.99); got != want {
		t.Errorf("short run: blockQuantile = %v, want the plain quantile %v", got, want)
	}
}
