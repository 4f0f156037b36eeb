// Command perfbench is the end-to-end benchmark of the ParBoX system: four
// seeded workloads driven through the public entry points, every answer
// checked against an oracle computed apart from the program, and a traced
// mode that breaks the time down by layer. See README.md for the workloads,
// metrics and reference figures; run it through run.sh, which builds it.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end ones untraced, per-layer ones traced).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one printed metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"bytes_per_query", "B"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reads 0 there (no scheduler wait without a scheduler, no views
// maintenance without updates).
var perLayer = []metricSpec{
	{"update_p50_ms", "ms"},
	{"update_p90_ms", "ms"},
	{"notify_p50_ms", "ms"},
	{"bytes_per_update", "B"},
	{"restore_s", "s"},
	{"parbox.sched_wait_ms", "ms"},
	{"parbox.queries_per_round", "count"},
	{"parbox.lanes_per_round", "count"},
	{"parbox.lane_sharing", "ratio"},
	{"parbox.notify_dispatch_ms", "ms"},
	{"core.coord_self_ms", "ms"},
	{"core.solve_work_per_query", "count"},
	{"core.visits_per_site", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"cluster.rpc_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.queue_ms", "ms"},
	{"cluster.admit_ms", "ms"},
	{"cluster.messages_per_query", "count"},
	{"cluster.bytes_per_fragment", "B"},
	{"eval.bottomup_ms", "ms"},
	{"eval.bottomup_ns_per_node_lane", "ns"},
	{"eval.root_bottomup_ms", "ms"},
	{"eval.steps_per_query", "count"},
	{"boolexpr.encode_ms", "ms"},
	{"views.apply_ms", "ms"},
	{"views.apply_interior_ms", "ms"},
	{"views.apply_leaf_ms", "ms"},
	{"views.spine_share", "ratio"},
	{"views.noop_share", "ratio"},
	{"views.deltas_per_update", "count"},
	{"store.bytes_written_per_update", "B"},
	{"store.restore_open_ms", "ms"},
	{"xpath.prepare_us", "us"},
	{"obs.trace_overhead_pct", "%"},
	{"layers.unexplained_pct", "%"},
}

// workload is one workload's driver and its length: a run of --seconds s
// attempts round(s × roundsPerSec) rounds, about s seconds of timed work
// on the reference host (README), so the seed and --seconds alone fix the
// operation sequence.
type workload struct {
	run          func(*bench) error
	roundsPerSec float64
}

// workloads maps each workload name to its driver.
var workloads = map[string]workload{
	"eval-bigfrag":     {runBigFrag, 4},
	"fanout-tcp":       {runFanout, 4},
	"dissem-burst":     {runDissem, 8},
	"update-subscribe": {runUpdate, 8},
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	rounds   int // rounds of the timed part, from seconds
	trace    bool
	// fanout is card(F) of fanout-tcp's star.
	fanout int
	// outDir holds the run's scratch state (data directories) and traces.
	outDir string
	// small shrinks every document (the self-test's quick runs).
	small bool
	// corruptOracle flips the oracle answer of the first checked query,
	// so the self-test can show that a wrong answer fails the run.
	corruptOracle bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.Failed > 0 || !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	w := fs.String("workload", "", "workload: eval-bigfrag, fanout-tcp, dissem-burst or update-subscribe")
	seed := fs.Int64("seed", 1, "seed of the generated documents and operation sequences")
	secs := fs.Float64("seconds", 10, "nominal length of the timed part; fixes its number of rounds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown")
	fanout := fs.Int("fanout", 128, "card(F) of fanout-tcp's star of fragments")
	out := fs.String("out", ".bench_build", "directory for scratch state and trace files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*w]; !ok {
		return config{}, fmt.Errorf("unknown workload %q", *w)
	}
	if *secs <= 0 || *trace < 0 || *trace > 1 || *fanout < 2 {
		return config{}, errors.New("--seconds must be positive, --trace 0 or 1, --fanout at least 2")
	}
	return config{
		workload: *w, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)),
		trace: *trace == 1, fanout: *fanout, outDir: *out,
	}, nil
}

// result is the JSON object printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and writes the report, JSON last, to out.
func run(cfg config, out io.Writer) (result, error) {
	wl := workloads[cfg.workload]
	cfg.rounds = max(1, int(math.Round(cfg.seconds.Seconds()*wl.roundsPerSec)))
	b := &bench{cfg: cfg, rec: newRecorder(), e2e: map[string]float64{}, layer: map[string]float64{}}
	fmt.Fprintf(out, "host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "run: workload=%s seed=%d seconds=%g rounds=%d trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.rounds, cfg.trace)
	runDir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return result{}, err
	}
	b.dir = runDir
	err := wl.run(b)
	if rmErr := os.RemoveAll(runDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		if err := b.writeTraces(); err != nil {
			return result{}, err
		}
	}

	rec := b.rec
	attempted, failed := rec.totals()
	for _, kind := range rec.opOrder {
		c := rec.ops[kind]
		fmt.Fprintf(out, "ops: %-10s attempted=%d failed=%d\n", kind, c.attempted, c.failed)
	}
	for _, p := range rec.problems {
		fmt.Fprintln(out, "failure:", p)
	}
	res := result{Correct: rec.mismatch == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	specs, vals := endToEnd, b.e2e
	if cfg.trace {
		specs, vals = perLayer, b.layer
	}
	fmt.Fprintf(out, "samples: queries=%d setups=%d\n", rec.queries, len(rec.setups))
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok && !cfg.trace {
			return result{}, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// cpuModel reads the CPU model name for the host fingerprint.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
