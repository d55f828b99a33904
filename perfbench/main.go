// Command perfbench is the repository benchmark. One run makes one
// workload's graphs from a seed and, for --seconds in all, drives
// closed-loop solves of them (one in flight at a time) through
// energysssp.Run, checking every solve's distances against a Dijkstra
// reference. With --trace 0 it reports the
// end-to-end metrics, measured with instrumentation off; with --trace 1 it
// reports the per-layer breakdown from traced solves and from timed calls
// into each layer. The last line of standard output is the result object;
// the "#" lines before it record the machine and the workload. README.md
// lists the workloads, the metrics and which layer moves which figure.
//
// Build and run from the repository root:
//
//	bash perfbench/run.sh --workload cal-selftuning --seed 42 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric; the tables below mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_rel_p50", "ratio"},
	{"sim_ms", "ms"},
	{"energy_mj", "mJ"},
	{"iterations", "count"},
	{"relaxed_per_edge", "ratio"},
	{"alloc_mb_per_solve", "MB"},
	{"correct_frac", "ratio"},
}

var perLayer = []metricDef{
	{"sssp.advance.host_ms", "ms"},
	{"sssp.advance.sim_ms", "ms"},
	{"sssp.advance.energy_mj", "mJ"},
	{"sssp.advance.edges", "count"},
	{"sssp.advance.calls", "count"},
	{"sssp.advance.updates_per_edge", "ratio"},
	{"sssp.advance.edge_path_frac", "ratio"},
	{"sssp.advance.edges_per_us.vertex", "edges/us"},
	{"sssp.advance.edges_per_us.edge", "edges/us"},
	{"sssp.advance.edges_per_us.auto", "edges/us"},
	{"sssp.filter.host_ms", "ms"},
	{"sssp.filter.sim_ms", "ms"},
	{"sssp.filter.energy_mj", "mJ"},
	{"sssp.filter.items", "count"},
	{"sssp.filter.keep_frac", "ratio"},
	{"sssp.rebalance.host_ms", "ms"},
	{"sssp.rebalance.sim_ms", "ms"},
	{"sssp.rebalance.energy_mj", "mJ"},
	{"sssp.rebalance.items", "count"},
	{"sssp.solve_ms_p50", "ms"},
	{"sssp.unattributed_ms", "ms"},
	{"sssp.us_per_iter", "us"},
	{"sssp.solve_ms_tail", "ms"},
	{"sssp.solve_ms_tail_pct", "%"},
	{"sssp.solve_samples", "count"},
	{"sssp.sched_spread", "ratio"},
	{"sssp.scratch.miss_frac", "ratio"},
	{"parallel.scan.host_ms", "ms"},
	{"parallel.scan.calls", "count"},
	{"parallel.scan.items", "count"},
	{"parallel.pool.launches", "count"},
	{"parallel.pool.busy_ms", "ms"},
	{"parallel.pool.idle_frac", "ratio"},
	{"parallel.pool.dispatch_us", "us"},
	{"parallel.speedup", "ratio"},
	{"core.controller.host_ms", "ms"},
	{"core.controller.sim_ms", "ms"},
	{"core.controller.energy_mj", "mJ"},
	{"core.controller.calls", "count"},
	{"core.replay_us_per_iter", "us"},
	{"core.tracking_err_mean", "ratio"},
	{"core.converge_iter", "count"},
	{"power.avg_w", "W"},
	{"obs.overhead_pct", "%"},
	{"obs.spans_dropped", "count"},
	{"flight.write_ms", "ms"},
	{"flight.bytes_per_iter", "B"},
	{"runtime.gc_per_solve", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.ref_kernel_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects defs from vals. A missing or non-finite value is a bug in
// the benchmark, not a measurement, so it is an error.
func report(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// machine describes the host a result was measured on.
func machine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command; it returns the exit code: 0 when every solve was
// correct, 1 when a solve failed or the run could not complete, 2 for bad
// arguments.
func run(args []string, stdout, stderr io.Writer) int {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	errw := bufio.NewWriter(stderr)
	defer errw.Flush()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	name := fs.String("workload", "", "workload name: cal-selftuning, cal-nearfar or wiki-selftuning")
	seed := fs.Uint64("seed", 42, "graph generator seed")
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	scale := fs.Float64("scale", benchScale, "graph scale relative to the paper inputs")
	dir := fs.String("dir", ".bench_build/perfbench", "directory for the generated graph files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	switch {
	case err != nil:
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case !(*seconds > 0):
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	case !(*scale > 0 && *scale <= 1):
		err = fmt.Errorf("--scale must be in (0, 1], got %v", *scale)
	}
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 2
	}

	in, err := newInstance(w, *seed, *scale, *dir)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "# machine: %s seed=%d\n", machine(), *seed)
	fmt.Fprintf(out, "# workload: %s algorithm=%v workers=%d setpoint=%g device=TK1 freq=auto graphs=%d %s-like scale=%g\n",
		w.name, w.algo, workers, in.cfg.SetPoint, graphsPerRun, w.graph, *scale)

	// Graphs are made and measured one at a time, each for an equal share
	// of the measured time, so only one is in memory.
	d := time.Duration(*seconds * float64(time.Second))
	share := d / graphsPerRun
	var t tally
	e2e := &untracedRun{}
	var lay *tracedRun
	if *trace == 1 {
		lay = newTracedRun()
	}
	var x *input
	for i := 0; i < graphsPerRun; i++ {
		x = nil // let the previous graph go before making the next
		if x, err = in.load(i); err != nil {
			fmt.Fprintln(errw, "perfbench: set-up:", err)
			return 1
		}
		fmt.Fprintf(out, "# graph: seed=%d vertices=%d edges=%d source=%d delta=%d\n",
			x.seed, x.g.NumVertices(), x.g.NumEdges(), x.src, x.delta)
		if lay == nil {
			e2e.measure(in, x, share, &t)
		} else {
			lay.measure(in, x, time.Duration(float64(share)*layerShare), &t)
		}
	}
	var defs []metricDef
	var vals map[string]float64
	if lay == nil {
		defs, vals = endToEnd, e2e.metrics(in, &t)
		fmt.Fprintln(out, e2e.summary())
	} else {
		defs, vals = perLayer, lay.metrics(x, w.algo, time.Duration(float64(d)*(1-layerShare)))
		fmt.Fprintln(out, lay.summary())
	}
	fmt.Fprintf(out, "# setup_s loads=%v\n", in.setupS)
	metrics, err := report(defs, vals)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "# failed_frac=%g (%d of %d solves)\n", t.failedFrac(), t.failed, t.attempted)
	fmt.Fprintln(out, string(line))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	if t.failed > 0 {
		fmt.Fprintln(errw, "perfbench: first failure:", t.firstErr)
		return 1
	}
	return 0
}
